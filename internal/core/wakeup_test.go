package core_test

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestWakeupMatchesOperandScan drives the four golden kernels over the
// golden budget (20k warmup plus 50k measured instructions), on TAGE-SC-L
// alone and with Mini Branch Runahead, and after every cycle checks the
// event-driven wakeup state against the operand scan it replaced
// (CheckWakeup, export_test.go). The machine is wired as sim wires it; the
// test lives outside package core because runahead imports core.
func TestWakeupMatchesOperandScan(t *testing.T) {
	for _, name := range []string{"mcf_17", "leela_17", "omnetpp_06", "tc"} {
		for _, withBR := range []bool{false, true} {
			w, err := workloads.ByName(name, workloads.SmallScale())
			if err != nil {
				t.Fatal(err)
			}
			hier := sim.NewHierarchy()
			c := core.New(core.DefaultConfig(), w.Prog, bpred.NewTAGESCL64(), hier, nil)
			if withBR {
				sys := runahead.New(runahead.Mini(), hier.DCache, c.Memory())
				sys.ShareTLB(hier.DTLB)
				c.SetExtension(sys)
			}
			for c.Ctr.Retired.Get() < 70_000 && !c.Halted() {
				now := c.Now()
				c.Cycle()
				if err := c.CheckWakeup(now); err != nil {
					t.Fatalf("%s br=%v: %v", name, withBR, err)
				}
			}
			if c.Ctr.Flushes.Get() == 0 {
				t.Errorf("%s br=%v: ran no recovery, so no squash unlinked a consumer", name, withBR)
			}
		}
	}
}
