package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Handle("a").Inc()
	c.Handle("a").Add(4)
	c.Handle("b").Add(7)
	if c.Get("a") != 5 || c.Get("b") != 7 || c.Get("missing") != 0 {
		t.Fatalf("a=%d b=%d", c.Get("a"), c.Get("b"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if !strings.Contains(c.String(), "a") {
		t.Fatal("String() missing counter")
	}
}

func TestCounterHandles(t *testing.T) {
	c := NewCounters()
	h := c.Handle("hits")
	h.Inc()
	h.Add(3)
	if h.Get() != 4 {
		t.Fatalf("handle Get = %d, want 4", h.Get())
	}
	// Get observes handle increments, and handles to one name share it.
	if c.Get("hits") != 4 {
		t.Fatalf("Get(hits) = %d, want 4", c.Get("hits"))
	}
	c.Handle("hits").Inc()
	if h.Get() != 5 {
		t.Fatalf("handle misses another handle's increment: %d", h.Get())
	}
	// Handle registration is idempotent and stable across later growth.
	h2 := c.Handle("hits")
	for i := 0; i < 100; i++ {
		c.Handle("filler" + string(rune('a'+i%26)) + string(rune('0'+i/26))).Inc()
	}
	h2.Inc()
	if h.Get() != 6 || c.Get("hits") != 6 {
		t.Fatalf("handle invalidated by growth: %d", h.Get())
	}
	// A registered-but-untouched handle shows up as zero.
	c.Handle("idle")
	if c.Get("idle") != 0 {
		t.Fatal("untouched handle must read zero")
	}
	found := false
	for _, n := range c.Names() {
		if n == "idle" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered handle missing from Names()")
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
