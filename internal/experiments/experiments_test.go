package experiments

import (
	"strings"
	"testing"

	"repro/internal/runahead"
	"repro/internal/simtest"
	"repro/internal/workloads"
)

func quickSuite() *Suite { return NewSuite(QuickOptions()) }

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := quickSuite()
	tab, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	// Shape requirements from the paper: MTAGE barely improves on TAGE for
	// these branches; dependence chains cut the rate substantially.
	mean := tab.Rows[len(tab.Rows)-1]
	tage, mtage, chains := simtest.ParseF(t, mean[1]), simtest.ParseF(t, mean[2]), simtest.ParseF(t, mean[3])
	if tage < 5 {
		t.Fatalf("hard-branch misprediction rate under TAGE is %.1f%%, too low to be 'hard'", tage)
	}
	if chains >= tage {
		t.Fatalf("dependence chains (%.1f%%) did not beat TAGE (%.1f%%)", chains, tage)
	}
	if chains >= mtage {
		t.Fatalf("dependence chains (%.1f%%) did not beat MTAGE (%.1f%%)", chains, mtage)
	}
}

func TestFigure2ChainLengths(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := quickSuite()
	tab, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	mean := simtest.ParseF(t, tab.Rows[len(tab.Rows)-1][1])
	if mean <= 0 || mean > 16 {
		t.Fatalf("mean chain length %.1f outside (0,16]", mean)
	}
}

func TestFigure10Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := quickSuite()
	tab, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	mean := tab.Rows[len(tab.Rows)-1]
	mpkiTage80, mpkiMini, mpkiBig := simtest.ParseF(t, mean[1]), simtest.ParseF(t, mean[3]), simtest.ParseF(t, mean[4])
	ipcMini := simtest.ParseF(t, mean[7])
	// The paper's ordering: 80KB TAGE is a wash; Mini and Big cut MPKI by
	// tens of percent; Big >= Mini (more chain-level parallelism).
	if mpkiTage80 > 15 {
		t.Fatalf("80KB TAGE MPKI improvement %.1f%% — should be marginal", mpkiTage80)
	}
	if mpkiMini < 15 {
		t.Fatalf("Mini MPKI improvement %.1f%%, want substantial", mpkiMini)
	}
	// At the quick test budget, per-workload variance between Mini and Big
	// is large (divergence timing shifts with window size); require only
	// that Big is in the same league.
	if mpkiBig < mpkiMini-20 {
		t.Fatalf("Big (%.1f%%) should not trail Mini (%.1f%%) badly", mpkiBig, mpkiMini)
	}
	if ipcMini <= 0 {
		t.Fatalf("Mini IPC improvement %.1f%%, want positive", ipcMini)
	}
}

func TestTablesRender(t *testing.T) {
	t1, t2, ta := Table1(), Table2(), AreaTable()
	for _, tab := range []string{t1.String(), t2.String(), ta.String()} {
		if len(tab) < 50 {
			t.Fatalf("suspiciously short table:\n%s", tab)
		}
	}
	if !strings.Contains(t2.String(), "17.") && !strings.Contains(t2.String(), "KB") {
		t.Fatalf("Table 2 lacks storage estimates:\n%s", t2)
	}
	if !strings.Contains(ta.String(), "16.96") {
		t.Fatalf("area table lacks the paper's core area:\n%s", ta)
	}
}

// TestFigureNames pins the figure registry that brexp -figure and
// brserve's catalog both read: the paper's figures, in the paper's order.
func TestFigureNames(t *testing.T) {
	want := []string{"1", "2", "3", "5", "10", "11top", "11bottom", "12", "13", "14", "15"}
	if got := FigureNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("FigureNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		if _, err := FigureByName(name); err != nil {
			t.Errorf("FigureByName(%q): %v", name, err)
		}
	}
	if _, err := FigureByName("11TOP"); err == nil || !strings.Contains(err.Error(), `"11TOP"`) {
		t.Errorf("FigureByName(\"11TOP\") error = %v, want one naming it", err)
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	opts := QuickOptions()
	opts.Workloads = []string{"mcf_17"}
	opts.Instrs = 40_000
	opts.Warmup = 10_000
	runs := 0
	opts.Progress = func(string) { runs++ }
	s := NewSuite(opts)
	if _, err := s.run("mcf_17", vTage64(), opts.Instrs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.run("mcf_17", vTage64(), opts.Instrs); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("cache miss: %d runs for identical request", runs)
	}
}

func TestOptionsWorkloadsExist(t *testing.T) {
	for _, name := range DefaultOptions().SweepWorkloads {
		if _, err := workloads.ByName(name, workloads.SmallScale()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepAxesValidate pins every Figure 13 sweep point against the
// runahead config validator: a sweep axis probing past a sizing limit (or a
// limit tightened below an axis) must fail here, not 50 seconds into the
// suite run.
func TestSweepAxesValidate(t *testing.T) {
	for _, ax := range sweepAxes {
		for _, v := range ax.values {
			c := runahead.Mini()
			ax.apply(&c, v)
			if err := c.Validate(); err != nil {
				t.Errorf("axis %s=%d: %v", ax.name, v, err)
			}
		}
	}
}
