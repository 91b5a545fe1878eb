package stats

import (
	"reflect"
	"testing"

	"repro/internal/brstate"
	"repro/internal/simtest"
)

func TestCountersRoundTrip(t *testing.T) {
	c := NewCounters()
	c.Handle("zeta").Add(7)
	c.Handle("alpha").Inc()
	c.Handle("mid").Add(1 << 40)
	h := c.Handle("handled")
	h.Add(41)

	fresh := NewCounters()
	fresh.CopyFrom(c)
	simtest.RequireDeepEqual(t, "counter values", c.Snapshot(), fresh.Snapshot())
	fresh.Handle("zeta").Inc()
	if got := c.Get("zeta"); got != 7 {
		t.Fatalf("incrementing the copy changed the original: zeta = %d, want 7", got)
	}
}

// TestCountersLoadIntoLaterRegistrations pins the lazily-registered-counter
// case: copying into an instance that already registered other names must
// keep both sets intact.
func TestCountersLoadIntoLaterRegistrations(t *testing.T) {
	c := NewCounters()
	c.Handle("saved").Add(3)

	fresh := NewCounters()
	fresh.Handle("preexisting").Add(9)
	fresh.CopyFrom(c)
	if got := fresh.Get("saved"); got != 3 {
		t.Fatalf("saved counter = %d, want 3", got)
	}
	if got := fresh.Get("preexisting"); got != 9 {
		t.Fatalf("preexisting counter clobbered: %d, want 9", got)
	}
}

func TestCounterMapRoundTrip(t *testing.T) {
	cases := []map[string]uint64{
		nil,
		{"one": 1},
		{"a": 1, "b": 2, "c": 1 << 50},
	}
	for _, m := range cases {
		w := brstate.NewWriter()
		w.Section("m", 1, func(w *brstate.Writer) { SaveCounterMap(w, m) })
		r, err := brstate.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]uint64
		r.Section("m", 1, func(r *brstate.Reader) { got = LoadCounterMap(r) })
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %v -> %v", m, got)
		}
	}
	// Empty-but-non-nil collapses to nil by documented contract.
	w := brstate.NewWriter()
	w.Section("m", 1, func(w *brstate.Writer) { SaveCounterMap(w, map[string]uint64{}) })
	r, err := brstate.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]uint64
	r.Section("m", 1, func(r *brstate.Reader) { got = LoadCounterMap(r) })
	if got != nil {
		t.Fatalf("empty map decoded as %v, want nil", got)
	}
}
