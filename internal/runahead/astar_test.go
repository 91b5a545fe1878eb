package runahead

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/workloads"
)

// TestDebugAstar runs astar_06, whose self-affecting branch no other test
// runs under Branch Runahead, through Mini for 150k instructions. Its chain
// instances must complete; the log shows the engine's counters, the chains
// and the prediction queues.
func TestDebugAstar(t *testing.T) {
	w, err := workloads.ByName("astar_06", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	hier := testHierarchy()
	c := core.New(core.DefaultConfig(), w.Prog, bpred.NewTAGESCL64(), hier, nil)
	sys := New(Mini(), hier.DCache, c.Memory())
	c.SetExtension(sys)
	if _, err := c.Run(150_000); err != nil {
		t.Fatal(err)
	}
	dce := sys.DCEStats()
	if dce.Completions.Get() == 0 {
		t.Fatalf("no chain instance completed: %+v", dce)
	}
	t.Logf("dce counters: %+v", dce)
	t.Logf("sys counters: %+v", sys.ctr)
	t.Logf("merge acc=%.2f", sys.MergeAccuracy())
	for _, ch := range sys.Chains() {
		t.Logf("chain:\n%s", ch)
	}
	for _, q := range sys.pqs.queues {
		if q.branchPC != 0 {
			t.Logf("queue pc=%d alloc=%d fetch=%d retire=%d active=%v throttle=%d",
				q.branchPC, q.alloc, q.fetch, q.retire, q.active, q.throttle)
		}
	}
}
