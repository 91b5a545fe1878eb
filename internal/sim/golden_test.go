package sim

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/runahead"
)

// goldenPoint is one pinned simulation outcome: the headline counts, the
// core's issued micro-ops (wrong path included, so a shifted wakeup on a
// squashed path still shows) and, for Branch Runahead runs, the Figure-12
// prediction breakdown and the Dependence Chain Engine's counters. br names
// the Table 2 configuration attached at reset; empty is TAGE-SC-L alone.
type goldenPoint struct {
	workload  string
	br        string
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
	{"mcf_17", "", 40192, 50000, 2703, 1320, 56367, nil, nil},
	{"leela_17", "", 48405, 50002, 5324, 1390, 71849, nil, nil},
	{"omnetpp_06", "", 30276, 50000, 2353, 391, 54380, nil, nil},
	{"tc", "", 46135, 50001, 11452, 1592, 64303, nil, nil},
	{"mcf_17", "mini", 27033, 50000, 2703, 0, 50003, map[string]uint64{
		"correct": 2703, "inactive": 0, "incorrect": 0, "late": 0, "throttled": 0}, map[string]uint64{
		"instances": 4175, "completions": 4046, "uops_issued": 20334, "loads_issued": 4079,
		"init_window_full": 2274, "init_queue_full": 74672, "predictive_flushes": 0,
		"syncs": 3, "sync_miss": 13, "divergences": 2}},
	{"leela_17", "mini", 46315, 50002, 5324, 1289, 70306, map[string]uint64{
		"correct": 548, "inactive": 2464, "incorrect": 109, "late": 813, "throttled": 5}, map[string]uint64{
		"instances": 25179, "completions": 6003, "uops_issued": 34324, "loads_issued": 8844,
		"init_window_full": 10861, "init_queue_full": 3798, "predictive_flushes": 467,
		"syncs": 1153, "sync_miss": 415, "divergences": 1846}},
	{"omnetpp_06", "mini", 27135, 50000, 2353, 81, 51513, map[string]uint64{
		"correct": 2088, "inactive": 9, "incorrect": 45, "late": 102, "throttled": 20}, map[string]uint64{
		"instances": 19567, "completions": 7485, "uops_issued": 47008, "loads_issued": 15867,
		"init_window_full": 758536, "init_queue_full": 395514, "predictive_flushes": 0,
		"syncs": 185, "sync_miss": 2, "divergences": 184}},
	{"tc", "mini", 35207, 50001, 11452, 1005, 57300, map[string]uint64{
		"correct": 1738, "inactive": 3481, "incorrect": 403, "late": 1123, "throttled": 4164}, map[string]uint64{
		"instances": 242795, "completions": 24643, "uops_issued": 150543, "loads_issued": 68994,
		"init_window_full": 1276726, "init_queue_full": 24811, "predictive_flushes": 2699,
		"syncs": 756, "sync_miss": 233, "divergences": 1787}},
	{"mcf_17", "core-only", 27081, 50000, 2703, 444, 50511, map[string]uint64{
		"correct": 1136, "inactive": 1, "incorrect": 85, "late": 14, "throttled": 14}, map[string]uint64{
		"instances": 3782, "completions": 3596, "uops_issued": 18472, "loads_issued": 3733,
		"init_window_full": 44574, "init_queue_full": 0, "predictive_flushes": 0,
		"syncs": 565, "sync_miss": 13, "divergences": 566}},
	{"leela_17", "core-only", 45672, 50002, 5324, 1249, 69492, map[string]uint64{
		"correct": 671, "inactive": 2312, "incorrect": 107, "late": 800, "throttled": 12}, map[string]uint64{
		"instances": 6958, "completions": 5213, "uops_issued": 28560, "loads_issued": 7086,
		"init_window_full": 12438, "init_queue_full": 4038, "predictive_flushes": 492,
		"syncs": 1142, "sync_miss": 387, "divergences": 1806}},
	{"omnetpp_06", "core-only", 27812, 50000, 2353, 264, 52457, map[string]uint64{
		"correct": 674, "inactive": 687, "incorrect": 69, "late": 135, "throttled": 62}, map[string]uint64{
		"instances": 3152, "completions": 2133, "uops_issued": 14325, "loads_issued": 5003,
		"init_window_full": 52441, "init_queue_full": 200, "predictive_flushes": 0,
		"syncs": 406, "sync_miss": 2, "divergences": 406}},
	{"tc", "core-only", 33328, 50001, 11452, 828, 57432, map[string]uint64{
		"correct": 2148, "inactive": 5298, "incorrect": 323, "late": 345, "throttled": 2558}, map[string]uint64{
		"instances": 26930, "completions": 16749, "uops_issued": 82843, "loads_issued": 23951,
		"init_window_full": 460028, "init_queue_full": 190278, "predictive_flushes": 2182,
		"syncs": 707, "sync_miss": 333, "divergences": 1829}},
	{"mcf_17", "big", 27033, 50000, 2703, 3, 50005, map[string]uint64{
		"correct": 2679, "inactive": 0, "incorrect": 3, "late": 0, "throttled": 0}, map[string]uint64{
		"instances": 9875, "completions": 7455, "uops_issued": 37420, "loads_issued": 7500,
		"init_window_full": 57, "init_queue_full": 2061445, "predictive_flushes": 0,
		"syncs": 6, "sync_miss": 13, "divergences": 5}},
	{"leela_17", "big", 46183, 50000, 5324, 1260, 70446, map[string]uint64{
		"correct": 654, "inactive": 2349, "incorrect": 62, "late": 826, "throttled": 0}, map[string]uint64{
		"instances": 297739, "completions": 7874, "uops_issued": 46994, "loads_issued": 12312,
		"init_window_full": 6224, "init_queue_full": 6017, "predictive_flushes": 365,
		"syncs": 1216, "sync_miss": 371, "divergences": 1910}},
	{"omnetpp_06", "big", 26858, 50000, 2353, 41, 51111, map[string]uint64{
		"correct": 2236, "inactive": 0, "incorrect": 18, "late": 89, "throttled": 0}, map[string]uint64{
		"instances": 111571, "completions": 5345, "uops_issued": 33002, "loads_issued": 11054,
		"init_window_full": 56293, "init_queue_full": 1431047, "predictive_flushes": 0,
		"syncs": 106, "sync_miss": 2, "divergences": 105}},
}

// goldenCfg is the short quick-scale budget the golden points use:
// TAGE-SC-L alone, or with the named Branch Runahead configuration attached
// at reset.
func goldenCfg(t *testing.T, br string) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Warmup = 20_000
	cfg.MaxInstrs = 50_000
	if br != "" {
		rc, err := runahead.ConfigByName(br)
		if err != nil {
			t.Fatal(err)
		}
		cfg.BR = &rc
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
// Mini runs on all four kernels. Core-Only runs on them too, because only
// it sizes its window by the core's spare reservation stations each cycle.
// Big runs on three: its 1024-entry window and 64 queues are the only ones
// that fill with hundreds of instances. Big on tc takes seconds, so
// cmd/brexp's TestQuickTablesPinnedToEpoch pins the bytes of
// `brexp -quick -workload tc -br big -json` instead.
//
// Each point is driven through the machine Run builds, so the BR points
// can also read the engine's counters, which Result does not carry. Those
// totals include the warmup. They show a change to when the engine scans
// its instance lists even where the cycle count happens to survive it.
func TestGoldenCycleExact(t *testing.T) {
	for _, want := range golden {
		m, err := newMachine(mustWorkload(t, want.workload), goldenCfg(t, want.br))
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
			got.dce = dceCounts(m.sys.DCEStats())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s br=%q:\ngot  %+v\nwant %+v", want.workload, want.br, got, want)
		}
	}
}

// dceCounts names the engine's counters as the golden table does.
func dceCounts(c runahead.DCECounters) map[string]uint64 {
	return map[string]uint64{
		"instances":          c.Instances.Get(),
		"completions":        c.Completions.Get(),
		"uops_issued":        c.UopsIssued.Get(),
		"loads_issued":       c.LoadsIssued.Get(),
		"init_window_full":   c.InitWindowFull.Get(),
		"init_queue_full":    c.InitQueueFull.Get(),
		"predictive_flushes": c.PredictiveFlushes.Get(),
		"syncs":              c.Syncs.Get(),
		"sync_miss":          c.SyncMiss.Get(),
		"divergences":        c.Divergences.Get(),
	}
}

// goldenDigests pins a digest of the golden table for each simulator
// epoch. A change that moves a golden value moves the digest, and the run
// cache would then serve the old simulator's results under the same
// address, so such a change must bump Epoch and add its digest here.
var goldenDigests = map[int]string{
	1: "467b0f7038a6c1f8",
}

// TestGoldenDigestPinnedToEpoch fails when the golden table changes without
// an Epoch bump.
func TestGoldenDigestPinnedToEpoch(t *testing.T) {
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", golden))))[:16]
	if want := goldenDigests[Epoch]; got != want {
		t.Fatalf("golden table digest is %s, but epoch %d pins %q: a change to the golden values must bump sim.Epoch and pin its digest",
			got, Epoch, want)
	}
}
