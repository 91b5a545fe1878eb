package sim

import (
	"reflect"
	"testing"

	"repro/internal/runahead"
)

// goldenPoint is one pinned simulation outcome: the headline counts, the
// core's issued micro-ops (wrong path included, so a shifted wakeup on a
// squashed path still shows) and, for Branch Runahead runs, the Figure-12
// prediction breakdown and the Dependence Chain Engine's counters.
type goldenPoint struct {
	workload  string
	br        bool
	cycles    uint64
	instrs    uint64
	branches  uint64
	mispred   uint64
	coreUops  uint64
	breakdown map[string]uint64
	dce       map[string]uint64
}

// golden holds fixed numbers, not numbers this code computes about itself:
// a change that shifts a single wakeup, recovery or prediction-queue slot
// moves at least one of them. Regenerate only for a deliberate change to
// the simulated machine, and say why in the commit.
var golden = []goldenPoint{
	{"mcf_17", false, 40192, 50000, 2703, 1320, 56367, nil, nil},
	{"leela_17", false, 48405, 50002, 5324, 1390, 71849, nil, nil},
	{"omnetpp_06", false, 30276, 50000, 2353, 391, 54380, nil, nil},
	{"tc", false, 46135, 50001, 11452, 1592, 64303, nil, nil},
	{"mcf_17", true, 27033, 50000, 2703, 0, 50003, map[string]uint64{
		"correct": 2703, "inactive": 0, "incorrect": 0, "late": 0, "throttled": 0}, map[string]uint64{
		"instances": 4175, "completions": 4046, "uops_issued": 20334, "loads_issued": 4079,
		"init_window_full": 2274, "init_queue_full": 74672, "predictive_flushes": 0,
		"syncs": 3, "sync_miss": 13, "divergences": 2}},
	{"leela_17", true, 46315, 50002, 5324, 1289, 70306, map[string]uint64{
		"correct": 548, "inactive": 2464, "incorrect": 109, "late": 813, "throttled": 5}, map[string]uint64{
		"instances": 25179, "completions": 6003, "uops_issued": 34324, "loads_issued": 8844,
		"init_window_full": 10861, "init_queue_full": 3798, "predictive_flushes": 467,
		"syncs": 1153, "sync_miss": 415, "divergences": 1846}},
	{"omnetpp_06", true, 27135, 50000, 2353, 81, 51513, map[string]uint64{
		"correct": 2088, "inactive": 9, "incorrect": 45, "late": 102, "throttled": 20}, map[string]uint64{
		"instances": 19567, "completions": 7485, "uops_issued": 47008, "loads_issued": 15867,
		"init_window_full": 758536, "init_queue_full": 395514, "predictive_flushes": 0,
		"syncs": 185, "sync_miss": 2, "divergences": 184}},
	{"tc", true, 35207, 50001, 11452, 1005, 57300, map[string]uint64{
		"correct": 1738, "inactive": 3481, "incorrect": 403, "late": 1123, "throttled": 4164}, map[string]uint64{
		"instances": 242795, "completions": 24643, "uops_issued": 150543, "loads_issued": 68994,
		"init_window_full": 1276726, "init_queue_full": 24811, "predictive_flushes": 2699,
		"syncs": 756, "sync_miss": 233, "divergences": 1787}},
}

// goldenCfg is the short quick-scale budget the golden points use:
// TAGE-SC-L alone, or with Mini Branch Runahead attached at reset.
func goldenCfg(br bool) Config {
	cfg := DefaultConfig()
	cfg.Warmup = 20_000
	cfg.MaxInstrs = 50_000
	if br {
		mini := runahead.Mini()
		cfg.BR = &mini
	}
	return cfg
}

// TestGoldenCycleExact pins cycle-exact results on four kernels of
// different character: pointer chasing (mcf_17), branchy (leela_17),
// memory-bound (omnetpp_06) and graph (tc). The other equivalence tests
// (replay conformance, fork equality, -j byte identity) compare the
// simulator with itself; this one compares it with fixed numbers, so an
// optimisation that perturbs timing cannot pass unnoticed.
//
// Each point is driven through the machine Run builds, so the BR points
// can also read the engine's counters, which Result does not carry. Those
// totals include the warmup. They show a change to when the engine scans
// its instance lists even where the cycle count happens to survive it.
func TestGoldenCycleExact(t *testing.T) {
	for _, want := range golden {
		m, err := newMachine(mustWorkload(t, want.workload), goldenCfg(want.br))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.run()
		if err != nil {
			t.Fatal(err)
		}
		got := goldenPoint{
			workload: want.workload, br: want.br,
			cycles: res.Cycles, instrs: res.Instrs,
			branches: res.Branches, mispred: res.Mispred,
			coreUops: res.CoreUops, breakdown: res.Breakdown,
		}
		if m.sys != nil {
			got.dce = m.sys.DCEStats().Snapshot()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s br=%v:\ngot  %+v\nwant %+v", want.workload, want.br, got, want)
		}
	}
}
