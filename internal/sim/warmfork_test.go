package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/runahead"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// forkCfg is the WarmupBarrier-mode config the fork tests share: small
// enough to keep the matrix fast, BR-enabled so the deferred boundary attach
// is exercised.
func forkCfg(br *runahead.Config) Config {
	cfg := DefaultConfig()
	cfg.Warmup = 20_000
	cfg.MaxInstrs = 40_000
	cfg.BR = br
	cfg.WarmupBarrier = true
	return cfg
}

// TestForkEqualsStraightThrough forks measure configs from one shared warmup
// and requires each forked Result to deep-equal the straight-through Run of
// the identical config. It covers the quick-suite workloads executed and
// replayed from recorded traces (so the trace position crosses the fork),
// including a fork whose measure partition (budget and BR config) differs
// from the config that warmed up, and one mcf_17 fork per registered
// predictor.
func TestForkEqualsStraightThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mini := runahead.Mini()
	for _, name := range []string{"mcf_17", "leela_17", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			requireForksEqual(t, mustWorkload(t, name), forkCfg(&mini))
		})
		t.Run(name+"/replay", func(t *testing.T) {
			base := forkCfg(&mini)
			base.FrontEnd = FETrace
			requireForksEqual(t, recordedWorkload(t, mustWorkload(t, name), base), base)
		})
	}
	for _, pred := range PredictorNames() {
		pred := pred
		t.Run("mcf_17/"+pred, func(t *testing.T) {
			k, err := ParsePredictor(pred)
			if err != nil {
				t.Fatal(err)
			}
			base := forkCfg(&mini)
			base.Predictor = k
			requireForksEqual(t, mustWorkload(t, "mcf_17"), base)
		})
	}
}

// requireForksEqual warms w up once under base and forks base from it. For
// the Table 1 predictor it also forks a config whose measure-only fields
// differ (Big instead of Mini, a shorter budget). Each fork must deep-equal
// the straight-through Run of the same config.
func requireForksEqual(t *testing.T, w *workloads.Workload, base Config) {
	t.Helper()
	blob, err := WarmupSnapshot(w, base)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{base}
	if base.Predictor == PredTage64 {
		big := runahead.Big()
		other := base
		other.BR = &big
		other.MaxInstrs = 25_000
		if WarmupKey(base) != WarmupKey(other) {
			t.Fatalf("measure-only edits changed the warmup key:\n%q\n%q",
				WarmupKey(base), WarmupKey(other))
		}
		cfgs = append(cfgs, other)
	}
	for _, cfg := range cfgs {
		straight, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		forked, err := RunFromWarmup(w, cfg, blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(straight, forked) {
			t.Errorf("forked run diverged from straight-through:\nstraight: %+v\nforked:   %+v",
				straight, forked)
		}
	}
}

// TestRunFromWarmupRejectsMismatch exercises the runtime guard: a blob must
// be refused when restored into a config whose warmup-tagged fields differ,
// or into a different workload.
func TestRunFromWarmupRejectsMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mini := runahead.Mini()
	base := forkCfg(&mini)
	blob, err := WarmupSnapshot(mustWorkload(t, "mcf_17"), base)
	if err != nil {
		t.Fatal(err)
	}

	warm := base
	warm.Warmup = 25_000
	if _, err := RunFromWarmup(mustWorkload(t, "mcf_17"), warm, blob); err == nil ||
		!strings.Contains(err.Error(), "warmup key") {
		t.Errorf("differing Warmup accepted: err=%v", err)
	}

	core := base
	core.Core.ROBSize /= 2
	if _, err := RunFromWarmup(mustWorkload(t, "mcf_17"), core, blob); err == nil ||
		!strings.Contains(err.Error(), "warmup key") {
		t.Errorf("differing core config accepted: err=%v", err)
	}

	if _, err := RunFromWarmup(mustWorkload(t, "leela_17"), base, blob); err == nil ||
		!strings.Contains(err.Error(), "workload") {
		t.Errorf("wrong workload accepted: err=%v", err)
	}
}

// TestWarmupSharingPreconditions covers the shareable gate: sharing demands
// WarmupBarrier mode and no tracer, on both the save and restore sides.
func TestWarmupSharingPreconditions(t *testing.T) {
	mini := runahead.Mini()
	w := mustWorkload(t, "mcf_17")

	noBarrier := forkCfg(&mini)
	noBarrier.WarmupBarrier = false
	if _, err := WarmupSnapshot(w, noBarrier); err == nil ||
		!strings.Contains(err.Error(), "WarmupBarrier") {
		t.Errorf("WarmupSnapshot without barrier mode: err=%v", err)
	}
	if _, err := RunFromWarmup(w, noBarrier, nil); err == nil ||
		!strings.Contains(err.Error(), "WarmupBarrier") {
		t.Errorf("RunFromWarmup without barrier mode: err=%v", err)
	}

	traced := forkCfg(&mini)
	traced.Trace = trace.New()
	if _, err := WarmupSnapshot(w, traced); err == nil ||
		!strings.Contains(err.Error(), "tracing") {
		t.Errorf("WarmupSnapshot with tracer: err=%v", err)
	}
	if _, err := RunFromWarmup(w, traced, nil); err == nil ||
		!strings.Contains(err.Error(), "tracing") {
		t.Errorf("RunFromWarmup with tracer: err=%v", err)
	}
}

// TestCycleSkipInvisible runs the same configs with the dead-cycle skip
// disabled and requires bit-identical Results: skipping cycles in which
// nothing can happen must be a pure wall-clock optimization.
func TestCycleSkipInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mini := runahead.Mini()
	for _, br := range []*runahead.Config{nil, &mini} {
		cfg := DefaultConfig()
		cfg.Warmup = 20_000
		cfg.MaxInstrs = 40_000
		cfg.BR = br
		fast, err := Run(mustWorkload(t, "mcf_17"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		slow := cfg
		slow.Core.DisableCycleSkip = true
		ref, err := Run(mustWorkload(t, "mcf_17"), slow)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("cycle skip changed results (br=%v):\nskip: %+v\nref:  %+v", br != nil, fast, ref)
		}
	}
}
