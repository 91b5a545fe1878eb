package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	var c Counter
	if c.Get() != 0 {
		t.Fatalf("zero value reads %d", c.Get())
	}
	c.Inc()
	c.Add(4)
	if c.Get() != 5 {
		t.Fatalf("Get = %d, want 5", c.Get())
	}
	// A struct of counters increments each field on its own.
	var set struct{ A, B Counter }
	set.A.Inc()
	set.B.Add(7)
	if set.A.Get() != 1 || set.B.Get() != 7 {
		t.Fatalf("A=%d B=%d", set.A.Get(), set.B.Get())
	}
}

func TestRates(t *testing.T) {
	if Rate(1, 0) != 0 || PerKilo(1, 0) != 0 || Pct(1, 0) != 0 {
		t.Fatal("zero denominators must yield zero")
	}
	if Rate(3, 4) != 0.75 {
		t.Fatal("rate")
	}
	if PerKilo(5, 1000) != 5 {
		t.Fatal("per-kilo")
	}
	if Pct(1, 4) != 25 {
		t.Fatal("pct")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	// Non-positive values are skipped, not poison.
	if g := GeoMean([]float64{0, 4}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean with zero = %f", g)
	}
}

func TestGeoMeanBounds(t *testing.T) {
	// Property: min <= geomean <= max for positive inputs.
	check := func(raw []uint16) bool {
		var vals []float64
		for _, r := range raw {
			vals = append(vals, float64(r%1000)+1)
		}
		if len(vals) == 0 {
			return true
		}
		g := GeoMean(vals)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-label", "2")
	tb.AddRowf("floats", 3.14159)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "3.14") {
		t.Fatalf("AddRowf formatting missing:\n%s", out)
	}
	// All data rows must start their second column at the same offset.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) <= idx {
			t.Fatalf("misaligned row %q", l)
		}
	}
}
