package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runahead"
	"repro/internal/sim"
)

// cacheTestOptions is a single-workload budget small enough that the
// cold-suite reference runs stay fast.
func cacheTestOptions(dir string) Options {
	o := QuickOptions()
	o.Workloads = []string{"mcf_17"}
	o.SweepWorkloads = []string{"mcf_17"}
	o.Warmup = 10_000
	o.Instrs = 40_000
	o.CacheDir = dir
	return o
}

// TestWarmCacheExecutesNothing is the persistent cache's acceptance pin: a
// second suite over the same cache directory must execute zero simulations
// and render byte-identical tables and Progress streams.
func TestWarmCacheExecutesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	render := func() (string, []string, int) {
		o := cacheTestOptions(dir)
		var lines []string
		o.Progress = func(l string) { lines = append(lines, l) }
		s := NewSuite(o)
		tab, err := s.Figure10()
		if err != nil {
			t.Fatal(err)
		}
		return tab.String(), lines, s.RunsExecuted()
	}
	coldTab, coldLines, coldExec := render()
	if coldExec == 0 {
		t.Fatal("cold suite executed no simulations")
	}
	warmTab, warmLines, warmExec := render()
	if warmExec != 0 {
		t.Fatalf("warm suite executed %d simulations, want 0", warmExec)
	}
	if warmTab != coldTab {
		t.Errorf("warm table differs from cold:\n--- cold\n%s\n--- warm\n%s", coldTab, warmTab)
	}
	if !reflect.DeepEqual(warmLines, coldLines) {
		t.Errorf("warm progress stream differs from cold:\ncold: %v\nwarm: %v", coldLines, warmLines)
	}
}

// TestCorruptCacheEntryRecomputed pins the cache's failure mode: a
// truncated entry is treated as a miss, recomputed, and overwritten with a
// valid one.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	o := cacheTestOptions(dir)
	cold := NewSuite(o)
	ref, err := cold.run("mcf_17", vTage64(), o.Instrs)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("e%d", sim.Epoch), "run-*.brres"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected exactly 1 cache entry, got %v (%v)", entries, err)
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	again := NewSuite(o)
	res, err := again.run("mcf_17", vTage64(), o.Instrs)
	if err != nil {
		t.Fatal(err)
	}
	if n := again.RunsExecuted(); n != 1 {
		t.Fatalf("corrupt entry: executed %d, want 1 (recompute)", n)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("recomputed result differs from the original")
	}
	warm := NewSuite(o)
	if _, err := warm.run("mcf_17", vTage64(), o.Instrs); err != nil {
		t.Fatal(err)
	}
	if n := warm.RunsExecuted(); n != 0 {
		t.Fatalf("entry was not repaired: warm suite executed %d, want 0", n)
	}
}

// TestCacheAddressCoversRunInputs: the run key names the workload, the
// variant and the measured budget, and nothing else. Two suites over one
// cache directory that differ only in warmup budget or only in workload
// scale must therefore not share entries, and a point's address must change
// with the predictor and Branch Runahead configuration behind its key.
func TestCacheAddressCoversRunInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, tc := range []struct {
		name   string
		change func(*Options)
	}{
		{"warmup", func(o *Options) { o.Warmup += 5_000 }},
		{"scale", func(o *Options) { o.Scale.Seed++ }},
	} {
		dir := t.TempDir()
		o := cacheTestOptions(dir)
		if _, err := NewSuite(o).run("mcf_17", vTage64(), o.Instrs); err != nil {
			t.Fatal(err)
		}
		tc.change(&o)
		other := NewSuite(o)
		if _, err := other.run("mcf_17", vTage64(), o.Instrs); err != nil {
			t.Fatal(err)
		}
		if n := other.RunsExecuted(); n != 1 {
			t.Errorf("%s: a suite differing only in %s executed %d simulations, want 1", tc.name, tc.name, n)
		}
		if entries, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("e%d", sim.Epoch), "run-*.brres")); len(entries) != 2 {
			t.Errorf("%s: %d cache entries, want 2", tc.name, len(entries))
		}
	}

	s := NewSuite(cacheTestOptions(t.TempDir()))
	mini, big := runahead.Mini(), runahead.Big()
	cfg := s.simConfig(vBR("mini", mini), 40_000)
	id := s.cacheID("mcf_17/mini/40000", cfg)
	cfg.BR = &big
	if s.cacheID("mcf_17/mini/40000", cfg) == id {
		t.Error("changing the BR configuration behind a key kept its cache address")
	}
	cfg.BR = &mini
	cfg.Predictor = vMTage().pred
	if s.cacheID("mcf_17/mini/40000", cfg) == id {
		t.Error("changing the predictor behind a key kept its cache address")
	}
}

// TestResultCodecRoundTrip pins the Result serialization on a real runahead
// result (maps, chain dumps, activity, breakdown all populated) and on a
// baseline one (nil Breakdown and ChainDumps preserved).
func TestResultCodecRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	o := cacheTestOptions(dir)
	s := NewSuite(o)
	for _, v := range []variant{vTage64(), vBR("mini", runahead.Mini())} {
		ref, err := s.run("mcf_17", v, o.Instrs)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.cacheLoad("mcf_17/"+v.key+"/40000", s.simConfig(v, o.Instrs))
		if !ok {
			t.Fatalf("%s: cache entry not loadable", v.key)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: decoded result differs:\nwant %+v\ngot  %+v", v.key, ref, got)
		}
	}
}
