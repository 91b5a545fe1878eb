package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one workload run: its operation and check counts, its
// metrics, and a log of failed checks.
type run struct {
	res result
	log io.Writer
}

func newRun(log io.Writer) *run {
	return &run{res: result{Metrics: make(map[string]metric)}, log: log}
}

// set records a metric. A value that is not finite is a benchmark bug; it is
// recorded as a failed check and reported as zero so the JSON stays valid.
func (r *run) set(name, unit string, v float64) {
	if !r.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is not finite", name) {
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// op records one attempted operation; a non-nil err counts it as failed.
func (r *run) op(err error) bool {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		fmt.Fprintf(r.log, "bench: operation failed: %v\n", err)
		return false
	}
	return true
}

// check records one output check; a false ok counts as a failed operation.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		fmt.Fprintf(r.log, "bench: check failed: "+format+"\n", args...)
	}
	return ok
}

// finish seals the result and prints every metric by name with its unit,
// then the result itself as the last line.
func (r *run) finish(out io.Writer) error {
	r.res.Correct = r.res.Failed == 0
	names := make([]string, 0, len(r.res.Metrics))
	for name := range r.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.res.Metrics[name]
		fmt.Fprintf(out, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// endToEnd records the end-to-end metrics every workload reports. ops is
// the number of the workload's operations measured over wall; opSeconds
// holds per-operation latencies; alloc is the bytes allocated while they
// ran; setup holds the repeated set-up times.
func (r *run) endToEnd(ops int, wall time.Duration, opSeconds []float64, alloc uint64, setup []float64) {
	r.set("ops_per_s", "op/s", float64(ops)/wall.Seconds())
	r.set("op_p50_ms", "ms", 1000*median(opSeconds))
	r.set("alloc_b_per_op", "B/op", float64(alloc)/float64(ops))
	r.set("setup_s", "s", median(setup))
}

// minSetupTime is how long set-up is repeated at least, so a set-up of
// microseconds still yields a stable median.
const minSetupTime = 250 * time.Millisecond

// timeSetup runs set-up at least reps times and until minSetupTime has
// passed (at most 1000 times), and returns each duration; the state of the
// last repetition is the one the caller keeps. Each repetition starts after
// a full garbage collection, so it does not pay for the previous one's
// garbage.
func timeSetup(reps int, setup func() error) ([]float64, error) {
	var out []float64
	total := 0.0
	for len(out) < reps || (total < minSetupTime.Seconds() && len(out) < 1000) {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t).Seconds()
		out = append(out, d)
		total += d
	}
	return out, nil
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of vs by the
// nearest-rank method.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// quartiles returns the first quartile, median and third quartile of vs
// exactly as Python's statistics.quantiles(vs, n=4) computes them (the
// default "exclusive" method), so spreads read the same in both. It needs
// at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024 // darwin reports bytes
	}
	return kb / 1024
}

// totalAlloc returns the cumulative bytes the process has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU float64
	mallocs         uint64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	out := runtimeSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.mallocs = s[2].Value.Uint64()
	}
	return out
}

// setRuntimeLayer records the Go runtime's share of a traced pass (GC CPU
// time over all CPU time, heap allocations per operation) and the
// process's peak resident memory.
func (r *run) setRuntimeLayer(before, after runtimeSample, ops int) {
	gc := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		gc = (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("runtime.gc_cpu_frac", "frac", gc)
	r.set("runtime.mallocs_per_op", "count", float64(after.mallocs-before.mallocs)/float64(ops))
	r.set("runtime.max_rss_mb", "MB", maxRSSMB())
}
