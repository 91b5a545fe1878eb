package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/runahead"
	"repro/internal/sim"
)

// TestNamedVariantAliasing: every (predictor, BR config) pair of the
// registries names a variant labelled "<predictor>" or "<predictor>+<br>",
// and a named run that simulates a figure's configuration is that figure's
// point. After Figure 10 on one workload, RunNamed of each of its five
// (predictor, BR) pairs executes nothing, and Figure 15 then executes only
// the 10 of its 12 points that Figure 10 has not run.
func TestNamedVariantAliasing(t *testing.T) {
	for _, pred := range sim.PredictorNames() {
		for _, br := range append([]string{""}, runahead.ConfigNames()...) {
			v, err := namedVariant(pred, br)
			if err != nil {
				t.Errorf("namedVariant(%q, %q): %v", pred, br, err)
				continue
			}
			want := pred
			if br != "" {
				want += "+" + br
			}
			if v.label != want || v.pred.String() != pred || (v.br != nil) != (br != "") || (v.br != nil && v.br.Name != br) {
				t.Errorf("namedVariant(%q, %q) = %q: %s + %v", pred, br, v.label, v.pred, v.br)
			}
		}
	}
	if testing.Short() {
		t.Skip("slow")
	}
	s := NewSuite(cacheTestOptions(""))
	if _, err := s.Figure10(); err != nil {
		t.Fatal(err)
	}
	fig10 := s.RunsExecuted()
	for _, p := range [][2]string{{"tage64", ""}, {"tage80", ""}, {"tage64", "core-only"}, {"tage64", "mini"}, {"tage64", "big"}} {
		if _, err := s.RunNamed("mcf_17", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
		if n := s.RunsExecuted() - fig10; n != 0 {
			t.Fatalf("RunNamed(mcf_17, %q, %q) after Figure 10 executed %d simulations, want 0", p[0], p[1], n)
		}
	}
	if _, err := s.Figure15(); err != nil {
		t.Fatal(err)
	}
	if n := s.RunsExecuted() - fig10; n != 10 {
		t.Errorf("Figure 15 after Figure 10 executed %d simulations, want 10", n)
	}
}

func TestNamedVariantRejectsUnknownNames(t *testing.T) {
	if _, err := namedVariant("nonsense", ""); err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("unknown predictor error = %v", err)
	}
	if _, err := namedVariant("tage64", "huge"); err == nil || !strings.Contains(err.Error(), "unknown BR config") {
		t.Errorf("unknown BR config error = %v", err)
	}
}

// TestInterruptAbortsRun pins that a tripped Interrupt hook aborts a point
// before any simulation (or cache probe) happens.
func TestInterruptAbortsRun(t *testing.T) {
	o := QuickOptions()
	stop := errors.New("job cancelled")
	o.Interrupt = func() error { return stop }
	s := NewSuite(o)
	if _, err := s.run("mcf_17", vTage64(), o.Instrs); !errors.Is(err, stop) {
		t.Fatalf("run under tripped Interrupt = %v, want %v", err, stop)
	}
	if n := s.RunsExecuted(); n != 0 {
		t.Fatalf("interrupted suite executed %d simulations, want 0", n)
	}
}

// TestNotifyFiresPerPoint pins that Notify sees every completed point
// exactly once — on execution and again on a warm-cache replay.
func TestNotifyFiresPerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	collect := func() []string {
		o := cacheTestOptions(dir)
		var labels []string
		o.Notify = func(label string) { labels = append(labels, label) }
		s := NewSuite(o)
		if _, err := s.RunNamed("mcf_17", "tage64", "mini"); err != nil {
			t.Fatal(err)
		}
		return labels
	}
	cold := collect()
	if len(cold) != 1 || !strings.HasPrefix(cold[0], "mcf_17/tage64+mini/") {
		t.Fatalf("cold Notify labels = %v, want one mcf_17/tage64+mini point", cold)
	}
	warm := collect()
	if len(warm) != 1 || warm[0] != cold[0] {
		t.Fatalf("warm Notify labels = %v, want %v", warm, cold)
	}
}
