package stats

import (
	"sort"

	"repro/internal/brstate"
)

// sortedKeys returns m's keys sorted.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	// Key gathering is order-insensitive; the sort below restores determinism.
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SaveCounterMap writes a plain name->value map deterministically (sorted by
// name). Used for Result payloads that carry counter-shaped maps.
func SaveCounterMap(w *brstate.Writer, m map[string]uint64) {
	keys := sortedKeys(m)
	w.Len(len(keys))
	for _, k := range keys {
		w.String(k)
		w.U64(m[k])
	}
}

// LoadCounterMap reads a map written by SaveCounterMap. A zero-length map is
// returned as nil so round trips preserve nil-ness of empty maps.
func LoadCounterMap(r *brstate.Reader) map[string]uint64 {
	n := r.LenBounded(16) // name length prefix + u64 value per entry
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.U64()
	}
	return m
}
