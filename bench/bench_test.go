package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// tinyBudget shrinks every simulated budget so the smoke test runs each
// workload in well under a second.
func tinyBudget() budget {
	return budget{
		warmup: 2_000, measured: 8_000,
		sweepWarmup: 2_000, sweepInstrs: 4_000,
		serveWarmup: 2_000, serveInstrs: 5_000,
		serveTraceRounds: 3,
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload, untraced and
// traced, at a tiny budget and checks it reports exactly the metrics
// BENCHMARK.json declares, each finite and with its declared unit, and that
// every output check passes.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(benchWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark runs %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	for _, w := range benchWorkloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var log bytes.Buffer
			o := options{seed: 3, seconds: time.Millisecond, dir: t.TempDir(), setupReps: 2, b: tinyBudget()}
			r, err := runWorkload(w, o, traced, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.res.Failed != 0 || r.res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed:\n%s", w.name, traced, r.res.Failed, r.res.Attempted, log.String())
			}
			if len(r.res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(r.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			var out bytes.Buffer
			if err := r.finish(&out); err != nil {
				t.Fatal(err)
			}
			if res, err := lastResult(out.Bytes()); err != nil || !res.Correct {
				t.Errorf("%s traced=%v: last line %v, correct=%v", w.name, traced, err, res.Correct)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), which the benchmark's spreads are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{4, 2}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	up := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	down := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	// The old runs differ by seed far more than any bound; pairing by seed
	// cancels that.
	base := []float64{50, 101, 99, 150, 102, 98, 70, 101, 99, 130}
	scaled := func(fs ...float64) [][2]float64 {
		out := make([][2]float64, len(base))
		for i, v := range base {
			out[i] = [2]float64{v, v * fs[i%len(fs)]}
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1, 1, 1, 1, 0.9, 1.1}
	for _, c := range []struct {
		m    specMetric
		ps   [][2]float64
		want string
	}{
		{up, scaled(1), "same"},
		{up, scaled(0.95), "same"},
		{up, scaled(0.98, 1.02), "same"},
		{up, scaled(0.8), "regressed"},
		{up, scaled(1.2), "improved"},
		{up, scaled(noisy...), "unresolved"},
		{down, scaled(noisy...), "unresolved"},
		{down, scaled(1.3), "regressed"},
		{down, scaled(0.7), "improved"},
		{up, scaled(1.05), "same"}, // within the old runs' own spread
		{up, [][2]float64{{100, 300}, {110, 200}, {90, 400}, {105, 250}}, "improved"},
		{specMetric{Name: "sim.ipc", Better: "higher"}, scaled(1), "same"},
		{specMetric{Name: "sim.ipc", Better: "higher"}, scaled(1.0001), "changed"},
		{specMetric{Name: "core.self_frac", Better: "lower"}, scaled(1.1), "+10.0%"},
	} {
		if got := verdict(c.m, c.ps); got != c.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", c.m.Name, c.ps, got, c.want)
		}
	}
}

// TestMixSeed pins the seed choice at the full budget: seed 2 gives
// omnetpp_06 a 4,764-node cycle, which its 600k instructions go round
// several times, and seed 3 a 52,604-node cycle, which they never close.
func TestMixSeed(t *testing.T) {
	for _, c := range []struct {
		seed int64
		kept bool
	}{{2, false}, {3, true}} {
		got, err := mixSeed(c.seed, fullBudget())
		if err != nil {
			t.Fatal(err)
		}
		if (got == c.seed) != c.kept || got%seedStride != c.seed {
			t.Errorf("mixSeed(%d) = %d, want the seed kept: %v", c.seed, got, c.kept)
		}
	}
}

func TestParseRawProfile(t *testing.T) {
	raw := []byte(`PeriodType: cpu nanoseconds
Samples:
samples/count cpu/nanoseconds
          4   40000000: 1 2
                bytes:[288]
          2   20000000: 2
          2   20000000: 3 1
Locations
     1: 0x501894 M=1 repro/internal/core.(*Core).complete core.go:420:0 s=413
             repro/internal/core.(*Core).Cycle core.go:319:0 s=317
     2: 0x501145 M=1 runtime.mallocgc malloc.go:1:0 s=1
     3: 0x401000 M=1 time.now time.go:1:0 s=1
             main.timedSource.FetchExec machine.go:1:0 s=1
Mappings
`)
	got, err := parseRawProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got["core"] != 0.5 || got["runtime"] != 0.25 || got["bench"] != 0.25 {
		t.Errorf("buckets = %v, want core 0.5, runtime 0.25, bench 0.25", got)
	}
}
