package stats

import (
	"reflect"
	"testing"

	"repro/internal/brstate"
)

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
