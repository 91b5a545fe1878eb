package sim

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Warmup forking. A warm machine is a WarmupBarrier-mode machine driven to
// its drained warmup/measure boundary, before the Branch Runahead system
// attaches, so one warmup serves every measure config that agrees on the
// warmup partition of Config. A fork builds a fresh machine and copies each
// component's state from the warm one into its own arrays; it only reads
// the warm machine, so forks may run concurrently from one. Two guards
// keep sharing honest: statically, brlint's config-partition rule proves
// warmup-phase code never reads a `brphase:"measure"` field; dynamically,
// the warm machine records the workload and WarmupKey it was warmed under,
// and RunFromWarmup refuses a config or workload that differs.

// WarmupKey returns a deterministic fingerprint of the warmup partition of
// cfg: every field tagged `brphase:"warmup"`, rendered field-by-field. Two
// configs with equal keys reach bit-identical warmup boundaries in
// WarmupBarrier mode and may share one warmup snapshot.
func WarmupKey(cfg Config) string {
	v := reflect.ValueOf(cfg)
	t := v.Type()
	var b strings.Builder
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Tag.Get("brphase") != "warmup" {
			continue
		}
		fv := v.Field(i)
		if tr, ok := fv.Interface().(*trace.Tracer); ok {
			// Only the enabled bit is warmup-visible: warmup code checks
			// Enabled() before emitting, never the sink's identity.
			fmt.Fprintf(&b, "%s=trace:%v;", f.Name, tr.Enabled())
			continue
		}
		switch fv.Kind() {
		case reflect.Ptr, reflect.Func, reflect.Map, reflect.Slice, reflect.Chan, reflect.Interface:
			// A reference-typed warmup field has no canonical value rendering;
			// adding one requires an explicit case above, not a silent %+v.
			panic(fmt.Sprintf("sim: WarmupKey cannot fingerprint warmup-tagged field %s (kind %s)",
				f.Name, fv.Kind()))
		}
		fmt.Fprintf(&b, "%s=%+v;", f.Name, fv.Interface())
	}
	return b.String()
}

// shareable reports whether cfg may participate in warmup-snapshot sharing.
func shareable(cfg Config) error {
	if !cfg.WarmupBarrier {
		return fmt.Errorf("sim: warmup sharing requires WarmupBarrier mode")
	}
	if cfg.Trace.Enabled() {
		// Forked runs would silently miss the warmup-phase trace events.
		return fmt.Errorf("sim: warmup sharing is incompatible with tracing")
	}
	return nil
}

// WarmMachine is a drained machine at the warmup/measure boundary, the
// shared state every fork copies. It is never run again.
type WarmMachine struct {
	m   *machine
	key string // WarmupKey of the config it was warmed under
}

// WarmupSnapshot drives w from reset to the warmup/measure boundary under
// cfg (which must be in WarmupBarrier mode) and returns the drained
// machine. Any config whose WarmupKey equals cfg's may fork from it,
// whatever its measure-only fields.
func WarmupSnapshot(w *workloads.Workload, cfg Config) (*WarmMachine, error) {
	if err := shareable(cfg); err != nil {
		return nil, err
	}
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.warmup(); err != nil {
		return nil, err
	}
	return &WarmMachine{m: m, key: WarmupKey(cfg)}, nil
}

// RunFromWarmup forks a fresh machine from warm and runs the measure phase
// under cfg, producing a Result bit-identical to a straight-through Run of
// the same config. It refuses a warm machine warmed up for another
// workload or under a config whose warmup-tagged fields differ.
func RunFromWarmup(w *workloads.Workload, cfg Config, warm *WarmMachine) (*Result, error) {
	if err := shareable(cfg); err != nil {
		return nil, err
	}
	switch key := WarmupKey(cfg); {
	case warm.m.w.Name != w.Name:
		return nil, fmt.Errorf("sim %s: warm machine is for workload %q", w.Name, warm.m.w.Name)
	case warm.key != key:
		return nil, fmt.Errorf("sim %s: warm machine's warmup key %q does not match config key %q (a warmup-tagged field differs)",
			w.Name, warm.key, key)
	}
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	m.copyFrom(warm.m)
	// The warm machine predates the boundary attach; install the runahead
	// system now and take the boundary snapshot exactly as Run does after
	// its warmup.
	m.attachBR()
	boundary := snapshot(m.c, m.sys, m.hier)
	return m.measure(boundary)
}

// copyFrom copies every simulated component's state from warm, a machine
// built under the same warmup partition: memory, core, predictor, caches
// and their prefetcher, TLB and DRAM.
func (m *machine) copyFrom(warm *machine) {
	m.c.Memory().CopyFrom(warm.c.Memory())
	m.c.CopyFrom(warm.c)
	predictors[m.cfg.Predictor].copy(m.bp, warm.bp)
	m.hier.ICache.CopyFrom(warm.hier.ICache)
	m.hier.DCache.CopyFrom(warm.hier.DCache)
	m.hier.L2.CopyFrom(warm.hier.L2)
	if m.hier.DTLB != nil {
		m.hier.DTLB.CopyFrom(warm.hier.DTLB)
	}
	if d, ok := m.hier.Mem.(*dram.DRAM); ok {
		d.CopyFrom(warm.hier.Mem.(*dram.DRAM))
	}
}
