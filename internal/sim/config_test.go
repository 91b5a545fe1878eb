package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/runahead"
	"repro/internal/workloads"
)

func TestSimConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	withBR := DefaultConfig()
	mini := runahead.Mini()
	withBR.BR = &mini
	if err := withBR.Validate(); err != nil {
		t.Fatalf("default+Mini rejected: %v", err)
	}

	bad := DefaultConfig()
	bad.MaxInstrs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero instruction budget accepted")
	}

	bad = DefaultConfig()
	bad.Warmup = math.MaxUint64 - 5
	bad.MaxInstrs = 10
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("Warmup+MaxInstrs overflow not rejected: %v", err)
	}

	bad = DefaultConfig()
	bad.Predictor = PredictorKind(99)
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown predictor kind accepted")
	}

	bad = DefaultConfig()
	bad.Core.ROBSize = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "core config") {
		t.Fatalf("nested core config error not surfaced: %v", err)
	}

	bad = withBR
	brBad := runahead.Mini()
	brBad.NumQueues = 0
	bad.BR = &brBad
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "runahead config") {
		t.Fatalf("nested runahead config error not surfaced: %v", err)
	}

	// Run must reject, not panic, on an invalid configuration.
	w, err := workloads.ByName("mcf_17", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, bad); err == nil || !strings.Contains(err.Error(), "runahead config") {
		t.Fatalf("Run accepted an invalid configuration: %v", err)
	}
}

// TestPredictorRegistry: every kind round-trips through its name, the names
// are the public spelling Result.Config and the run cache have always used,
// and an unknown name is an error naming the legal set.
func TestPredictorRegistry(t *testing.T) {
	want := []string{"tage64", "tage80", "mtage", "bimodal", "gshare", "perceptron", "tournament", "ldbp", "bullseye"}
	if got := PredictorNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("PredictorNames() = %v, want %v", got, want)
	}
	for i, name := range want {
		k := PredictorKind(i)
		if k.String() != name {
			t.Errorf("PredictorKind(%d).String() = %q, want %q", i, k.String(), name)
		}
		got, err := ParsePredictor(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePredictor(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		if b := predictors[k].build(nil); b == nil {
			t.Errorf("%s: constructor returned nil", name)
		}
	}
	if _, err := ParsePredictor("oracle"); err == nil || !strings.Contains(err.Error(), "tage64") {
		t.Errorf(`ParsePredictor("oracle") error = %v, want one listing the names`, err)
	}
	if s := PredictorKind(99).String(); s != "PredictorKind(99)" {
		t.Errorf("out-of-range kind prints %q", s)
	}

	mini := runahead.Mini()
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Predictor: PredTage64}, "tage64"},
		{Config{Predictor: PredBullseye, BR: &mini}, "bullseye+br-mini"},
		{Config{Predictor: PredLDBP, FrontEnd: FEExec}, "ldbp+exec"},
		{Config{Predictor: PredMTage, BR: &mini, FrontEnd: FETrace}, "mtage+br-mini+replay"},
	} {
		if got := configName(tc.cfg); got != tc.want {
			t.Errorf("configName = %q, want %q", got, tc.want)
		}
	}
}
