package sim

import (
	"reflect"
	"testing"

	"repro/internal/runahead"
)

// goldenPoint is one pinned simulation outcome: the headline counts, the
// core's issued micro-ops (wrong path included, so a shifted wakeup on a
// squashed path still shows) and, for Branch Runahead runs, the Figure-12
// prediction breakdown.
type goldenPoint struct {
	workload  string
	br        bool
	cycles    uint64
	instrs    uint64
	branches  uint64
	mispred   uint64
	coreUops  uint64
	breakdown map[string]uint64
}

// golden holds fixed numbers, not numbers this code computes about itself:
// a change that shifts a single wakeup, recovery or prediction-queue slot
// moves at least one of them. Regenerate only for a deliberate change to
// the simulated machine, and say why in the commit.
var golden = []goldenPoint{
	{"mcf_17", false, 40192, 50000, 2703, 1320, 56367, nil},
	{"leela_17", false, 48405, 50002, 5324, 1390, 71849, nil},
	{"omnetpp_06", false, 30276, 50000, 2353, 391, 54380, nil},
	{"tc", false, 46135, 50001, 11452, 1592, 64303, nil},
	{"mcf_17", true, 27033, 50000, 2703, 0, 50003, map[string]uint64{
		"correct": 2703, "inactive": 0, "incorrect": 0, "late": 0, "throttled": 0}},
	{"leela_17", true, 46315, 50002, 5324, 1289, 70306, map[string]uint64{
		"correct": 548, "inactive": 2464, "incorrect": 109, "late": 813, "throttled": 5}},
	{"omnetpp_06", true, 27135, 50000, 2353, 81, 51513, map[string]uint64{
		"correct": 2088, "inactive": 9, "incorrect": 45, "late": 102, "throttled": 20}},
	{"tc", true, 35207, 50001, 11452, 1005, 57300, map[string]uint64{
		"correct": 1738, "inactive": 3481, "incorrect": 403, "late": 1123, "throttled": 4164}},
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
func TestGoldenCycleExact(t *testing.T) {
	for _, want := range golden {
		res, err := Run(mustWorkload(t, want.workload), goldenCfg(want.br))
		if err != nil {
			t.Fatal(err)
		}
		got := goldenPoint{
			workload: want.workload, br: want.br,
			cycles: res.Cycles, instrs: res.Instrs,
			branches: res.Branches, mispred: res.Mispred,
			coreUops: res.CoreUops, breakdown: res.Breakdown,
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s br=%v:\ngot  %+v\nwant %+v", want.workload, want.br, got, want)
		}
	}
}
