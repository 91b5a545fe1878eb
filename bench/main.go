// Command bench is the repository's benchmark. It measures the host cost of
// the simulator and its harness end to end (operations per second, latency,
// allocation, set-up time) and, in a separate traced run, the share of host
// time each layer takes. See README.md for the workloads, metrics and
// bounds.
//
// One workload, as BENCHMARK.json's command runs it:
//
//	bash bench/run.sh --workload exec-base --seed 1 --seconds 12 --trace 0
//
// Every workload, each in its own child process, collecting the results:
//
//	bash bench/run.sh --runs 10 --out set.json
//
// Two collected sets compared against the bounds in BENCHMARK.json:
//
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options configures one workload run.
type options struct {
	seed    int64
	seconds time.Duration
	// dir is the run's scratch directory inside the checkout.
	dir string
	// setupReps is the fewest times set-up is repeated; setup_s is the
	// median.
	setupReps int
	b         budget
}

// budget sizes the simulated work. The smoke test shrinks it; the
// benchmark always runs fullBudget.
type budget struct {
	// warmup and measured are the per-kernel instruction budgets of the
	// simulation workloads.
	warmup, measured uint64
	// sweepWarmup and sweepInstrs size each Figure-13 sweep point.
	sweepWarmup, sweepInstrs uint64
	// serveWarmup and serveInstrs size the points the serve workload caches.
	serveWarmup, serveInstrs uint64
	// serveTraceRounds is the number of server rounds in each traced pass.
	serveTraceRounds int
}

func fullBudget() budget {
	return budget{
		warmup: 100_000, measured: 500_000,
		sweepWarmup: 30_000, sweepInstrs: 60_000,
		serveWarmup: 30_000, serveInstrs: 100_000,
		serveTraceRounds: 100,
	}
}

// workload is one benchmark workload: an untraced run reporting the
// end-to-end metrics and a traced run reporting the per-layer metrics.
type workload struct {
	name   string
	run    func(o options, r *run) error
	traced func(o options, r *run) error
}

var benchWorkloads = []workload{
	{"exec-base", func(o options, r *run) error { return runSim(o, r, execBase) },
		func(o options, r *run) error { return traceSim(o, r, execBase) }},
	{"exec-br", func(o options, r *run) error { return runSim(o, r, execBR) },
		func(o options, r *run) error { return traceSim(o, r, execBR) }},
	{"replay-base", func(o options, r *run) error { return runSim(o, r, replayBase) },
		func(o options, r *run) error { return traceSim(o, r, replayBase) }},
	{"sweep", runSweep, traceSweep},
	{"serve", runServe, traceServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr))
}

func mainArgs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", 1, "input seed (the first seed with -runs)")
	seconds := fs.Float64("seconds", 12, "seconds each run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "without -workload: runs per workload, with seeds seed, seed+1, ...")
	out := fs.String("out", "", "without -workload: write the collected results to this file")
	compare := fs.Bool("compare", false, "compare two collected result files: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	secs := time.Duration(*seconds * float64(time.Second))
	if *name == "" {
		if err := collect(*seed, *runs, *seconds, *trace, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: secs, dir: dir, setupReps: 3, b: fullBudget()}
	r, err := runWorkload(w, o, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := r.finish(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload, untraced or traced. A returned error means
// the run could not measure anything (set-up failed); failures of single
// operations are counted in the result instead. A traced run reports every
// per-layer metric BENCHMARK.json declares; a layer the workload never
// enters reads 0.
func runWorkload(w workload, o options, traced bool, log io.Writer) (*run, error) {
	r := newRun(log)
	if !traced {
		return r, w.run(o, r)
	}
	spec, err := loadSpec()
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range spec.PerLayer {
		r.res.Metrics[m.Name] = metric{Unit: m.Unit}
	}
	return r, w.traced(o, r)
}
