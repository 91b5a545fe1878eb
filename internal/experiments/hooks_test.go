package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/runahead"
	"repro/internal/sim"
)

// TestNamedVariantAliasing pins the key convention that lets a named
// single run share cache entries with figure points: every (predictor, BR
// config) pair of the registries, at the keys the run cache has always
// used. Bimodal's keys follow the same rule as every other predictor.
func TestNamedVariantAliasing(t *testing.T) {
	keys := map[string][4]string{ // predictor -> key alone, +core-only, +mini, +big
		"tage64":     {"tage64", "core-only", "mini", "big"},
		"tage80":     {"tage80", "tage80+core-only", "tage80+br", "tage80+big"},
		"mtage":      {"mtage", "mtage+core-only", "mtage+br", "mtage+big"},
		"bimodal":    {"bimodal", "bimodal+core-only", "bimodal+br", "bimodal+big"},
		"gshare":     {"gshare", "gshare+core-only", "gshare+br", "gshare+big"},
		"perceptron": {"perceptron", "perceptron+core-only", "perceptron+br", "perceptron+big"},
		"tournament": {"tournament", "tournament+core-only", "tournament+br", "tournament+big"},
		"ldbp":       {"ldbp", "ldbp+core-only", "ldbp+br", "ldbp+big"},
		"bullseye":   {"bullseye", "bullseye+core-only", "bullseye+br", "bullseye+big"},
	}
	brs := append([]string{""}, runahead.ConfigNames()...)
	if len(brs) != 4 {
		t.Fatalf("BR configs %v: the table pins core-only, mini and big", brs[1:])
	}
	preds := sim.PredictorNames()
	if len(preds) != len(keys) {
		t.Fatalf("registry has %d predictors, the table pins %d", len(preds), len(keys))
	}
	for _, pred := range preds {
		want, ok := keys[pred]
		if !ok {
			t.Errorf("predictor %q has no pinned keys", pred)
			continue
		}
		for i, br := range brs {
			v, err := namedVariant(pred, br)
			if err != nil {
				t.Errorf("namedVariant(%q, %q): %v", pred, br, err)
				continue
			}
			if v.key != want[i] {
				t.Errorf("namedVariant(%q, %q).key = %q, want %q", pred, br, v.key, want[i])
			}
			if v.pred.String() != pred || (v.br != nil) != (br != "") || (v.br != nil && v.br.Name != br) {
				t.Errorf("namedVariant(%q, %q) = %s + %v", pred, br, v.pred, v.br)
			}
		}
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
		var keys []string
		o.Notify = func(key string) { keys = append(keys, key) }
		s := NewSuite(o)
		if _, err := s.RunNamed("mcf_17", "tage64", "mini"); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	cold := collect()
	if len(cold) != 1 || !strings.Contains(cold[0], "mcf_17/mini/") {
		t.Fatalf("cold Notify keys = %v, want one mcf_17/mini point", cold)
	}
	warm := collect()
	if len(warm) != 1 || warm[0] != cold[0] {
		t.Fatalf("warm Notify keys = %v, want %v", warm, cold)
	}
}
