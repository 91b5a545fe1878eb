// Fuzz coverage for the persistent cache's decode path: cache entries are
// read back from disk on every warm suite, so arbitrary corruption of a
// .brres blob must decode as a miss (ok=false), never a panic or an
// input-independent huge allocation.
package experiments

import (
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
)

// fullResult populates every Result field the codec carries, including the
// owner-sized collections (Breakdown, ChainDumps, PerBranch) whose lengths
// the fuzzer mutates.
func fullResult() *sim.Result {
	return &sim.Result{
		Workload: "mcf_17", Config: "tage64+br-mini",
		Cycles: 123456, Instrs: 100000, Branches: 20000, Mispred: 1500,
		IPC: 0.81, MPKI: 15.0,
		CoreUops: 140000, CoreLoads: 40000, DCEUops: 9000, DCELoads: 3000,
		Syncs: 12, Chains: 40, AvgChainLen: 6.5, AGFraction: 0.25,
		MergeAcc: 0.9, MergeAccLayout: 0.88,
		Breakdown:  map[string]uint64{"correct": 900, "inactive": 50, "late": 25},
		ChainDumps: []string{"chain a", "chain b"},
		PerBranch: map[uint64]sim.BranchResult{
			0x400100: {PC: 0x400100, Execs: 5000, Mispred: 700},
			0x400200: {PC: 0x400200, Execs: 2500, Mispred: 80},
		},
		Activity: energy.RunActivity{
			Cycles: 123456, CoreUops: 140000, CoreLoads: 40000,
			L2Accesses: 8000, DRAMAccesses: 900, Flushes: 1500,
			DCEUops: 9000, DCELoads: 3000, Syncs: 12, HasDCE: true,
		},
	}
}

const fuzzKey = "mcf_17/mini/100000"

// TestCacheEntryRoundTrip pins the seed corpus' validity: encode → decode
// is identity, and a key mismatch or bytes after the last section are a
// miss.
func TestCacheEntryRoundTrip(t *testing.T) {
	want := fullResult()
	blob := encodeCacheEntry(fuzzKey, want)
	got, ok := decodeCacheEntry(fuzzKey, blob)
	if !ok {
		t.Fatal("decode of a just-encoded entry missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := decodeCacheEntry("other/key/1", blob); ok {
		t.Error("entry decoded under the wrong key")
	}
	trailer := len(blob) - 4
	padded := append(append(append([]byte(nil), blob[:trailer]...), make([]byte, 7)...), blob[trailer:]...)
	if _, ok := decodeCacheEntry(fuzzKey, padded); ok {
		t.Error("entry with bytes after its last section decoded")
	}
}

func FuzzLoadResult(f *testing.F) {
	f.Add(encodeCacheEntry(fuzzKey, fullResult()))
	f.Add(encodeCacheEntry(fuzzKey, &sim.Result{Workload: "bfs", Config: "tage64"}))
	f.Add([]byte{})
	f.Add([]byte("BRST"))
	f.Fuzz(func(t *testing.T, b []byte) {
		res, ok := decodeCacheEntry(fuzzKey, b)
		if ok && res == nil {
			t.Fatal("decode reported ok with a nil result")
		}
	})
}
