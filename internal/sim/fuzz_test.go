// Fuzz coverage for the warmup-blob restore path: warmup snapshots are
// persisted and shared across suite points, so a mutated or truncated blob
// handed to RunFromWarmup must come back as an error — never a panic or an
// input-independent huge allocation. The fuzz target stops at the decode
// boundary (restoreWarmup); running the measure phase on mutated-but-
// decodable state would risk unbounded run times under the fuzzer.
package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// warmFuzzConfig is the smallest WarmupBarrier-mode config a snapshot can
// be taken under.
func warmFuzzConfig() Config {
	return Config{
		Core:          core.DefaultConfig(),
		Predictor:     PredTage64,
		Warmup:        5_000,
		MaxInstrs:     10_000,
		WarmupBarrier: true,
	}
}

func warmFuzzWorkload(t testing.TB) *workloads.Workload {
	w, err := workloads.ByName("mcf_17", workloads.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func FuzzWarmupBlob(f *testing.F) {
	cfg := warmFuzzConfig()
	blob, err := WarmupSnapshot(warmFuzzWorkload(f), cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := restoreWarmup(warmFuzzWorkload(t), cfg, b)
		if err == nil && m == nil {
			t.Fatal("restoreWarmup returned no machine and no error")
		}
	})
}

// TestRunFromWarmupRejectsCorruptBlob pins the end-to-end contract the fuzz
// target exercises: flipping bytes anywhere in a valid blob either still
// restores (the flip hit dead space — impossible here, every byte is load-
// bearing) or surfaces as an error, and truncations always error.
func TestRunFromWarmupRejectsCorruptBlob(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := warmFuzzConfig()
	w := warmFuzzWorkload(t)
	blob, err := WarmupSnapshot(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFromWarmup(w, cfg, blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob restored without error")
	}
	if _, err := RunFromWarmup(w, cfg, blob[:12]); err == nil {
		t.Error("header-only blob restored without error")
	}
	// Corrupt the section directory: smash the warmmeta name bytes.
	mangled := append([]byte(nil), blob...)
	i := strings.Index(string(mangled), "warmmeta")
	if i < 0 {
		t.Fatal("warmmeta section name not found in blob")
	}
	copy(mangled[i:], "wxrmmeta")
	if _, err := RunFromWarmup(w, cfg, mangled); err == nil {
		t.Error("blob with corrupt section name restored without error")
	}
	// Bytes between the last section and the trailer: every section still
	// decodes, so only the unread remainder gives the corruption away.
	trailer := len(blob) - 4
	padded := append(append(append([]byte(nil), blob[:trailer]...), make([]byte, 7)...), blob[trailer:]...)
	if _, err := RunFromWarmup(w, cfg, padded); err == nil {
		t.Error("blob with bytes after its last section restored without error")
	}
}
