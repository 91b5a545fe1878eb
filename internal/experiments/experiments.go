// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each FigureN function returns a stats.Table whose rows
// match the paper's series; EXPERIMENTS.md records paper-vs-measured.
//
// Absolute numbers differ from the paper — the substrate is this repo's
// simulator and the workloads are synthetic stand-ins — but the shapes the
// paper argues from (who wins, by roughly what factor, where the crossovers
// fall) are the reproduction target.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options sizes the experiment runs.
type Options struct {
	Scale  workloads.Scale
	Warmup uint64
	Instrs uint64
	// SweepInstrs shortens the Figure 13 sweeps, as the paper does (10M
	// instead of 200M instructions).
	SweepInstrs uint64
	// Workloads restricts the benchmark set (nil = all 18).
	Workloads []string
	// SweepWorkloads restricts the Figure 13 sweep set.
	SweepWorkloads []string
	// Progress, when non-nil, receives one line per completed point. Within
	// a figure, lines are flushed in sorted label order once the figure's
	// whole batch has completed, so the stream is reproducible for any Jobs
	// value. A point a figure shares with an earlier one prints no line.
	// The callback itself is always invoked from a single goroutine.
	Progress func(string)
	// Jobs bounds how many simulations run concurrently; <= 0 selects
	// GOMAXPROCS. Results are byte-identical for every value: each run owns
	// its whole simulator object graph, and tables and Progress lines are
	// assembled in spec and sorted label order after the batch completes.
	Jobs int
	// CacheDir, when non-empty, enables the persistent run cache: every
	// completed simulation point is written to this directory under its
	// point ID and reused by later suite invocations, which then execute
	// zero simulations and render byte-identical tables. Empty turns off
	// both cache reads and writes.
	// See cache.go and DESIGN.md §10.
	CacheDir string
	// Interrupt, when non-nil, is polled at the start of every simulation
	// point; a non-nil return aborts that point (and therefore the figure
	// or run requesting it) with the returned error before any work —
	// including a cache probe — happens. Job cancellation in
	// internal/server is built on it. It is called concurrently from
	// worker goroutines and must be safe for that.
	Interrupt func() error
	// Notify, when non-nil, is invoked with a point's label each time the
	// point completes, whether served from cache or executed. Unlike
	// Progress it fires in completion order — it exists for real-time heartbeats
	// (job progress in internal/server), not for reproducible output.
	// Invocations are serialized; the callback never runs concurrently
	// with itself.
	Notify func(key string)
	// ShareWarmup runs every point in sim's WarmupBarrier mode and shares
	// one warmup snapshot across all points that agree on (workload, warmup
	// partition of the config) — a sweep warms up once per workload instead
	// of once per point. Barrier-mode results differ from default-mode ones
	// (the boundary barrier and the deferred Branch Runahead attach are part
	// of the semantics), so they live under their own cache address; they
	// are byte-identical across Jobs values and identical to a
	// straight-through WarmupBarrier run of each point.
	ShareWarmup bool
}

// DefaultOptions returns a configuration that regenerates every figure in
// minutes on a laptop.
func DefaultOptions() Options {
	return Options{
		Scale:          workloads.DefaultScale(),
		Warmup:         100_000,
		Instrs:         400_000,
		SweepInstrs:    150_000,
		SweepWorkloads: []string{"mcf_17", "leela_17", "omnetpp_17", "gobmk_06", "bfs", "tc"},
	}
}

// QuickOptions returns a reduced configuration for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		Scale:          workloads.SmallScale(),
		Warmup:         30_000,
		Instrs:         100_000,
		SweepInstrs:    60_000,
		Workloads:      []string{"mcf_17", "leela_17", "bfs"},
		SweepWorkloads: []string{"mcf_17", "leela_17"},
	}
}

// Suite runs simulations on demand and caches them by point ID, so a
// configuration that several figures simulate, such as a benchmark's
// baseline, runs once. Runs execute on a bounded worker pool (Options.Jobs)
// with singleflight deduplication, and every FigureN submits its full run
// set as one batch and assembles its table from the batch's results — see
// runner.go.
type Suite struct {
	opts   Options
	runner *runner

	// progressMu guards the Progress batching state: while a batch is open,
	// completed runs buffer their lines keyed by label and endBatch
	// flushes them sorted.
	progressMu sync.Mutex
	batchDepth int
	pending    map[string]string

	// notifyMu serializes Options.Notify invocations across workers.
	notifyMu sync.Mutex

	// traceMu guards traceWl, the memo of resolved trace-backed workloads
	// keyed by both the requested spec ("trace:name", "trace:path") and the
	// canonical fingerprinted name it resolved to — so each trace file is
	// read and validated once per suite, and the miss path of runPoint can
	// fetch the workload its canonical name denotes.
	traceMu sync.Mutex
	traceWl map[string]*workloads.Workload
}

// NewSuite returns an empty suite.
func NewSuite(opts Options) *Suite {
	return &Suite{
		opts:    opts,
		runner:  newRunner(opts.Jobs),
		pending: make(map[string]string),
		traceWl: make(map[string]*workloads.Workload),
	}
}

// RunsExecuted returns how many simulations the suite has actually executed
// (cache hits and deduplicated concurrent requests excluded). The
// parallel-speedup benchmark divides it by wall time.
func (s *Suite) RunsExecuted() int { return s.runner.Executed() }

func (s *Suite) names() []string {
	if len(s.opts.Workloads) > 0 {
		return s.opts.Workloads
	}
	return workloads.Names()
}

func (s *Suite) sweepNames() []string {
	if len(s.opts.SweepWorkloads) > 0 {
		return s.opts.SweepWorkloads
	}
	return s.names()
}

// variant describes one simulator configuration. Its label names the
// variant's points in Progress lines and Notify calls; what a point
// simulates, and so its identity, is its configuration (pointID).
type variant struct {
	label string
	pred  sim.PredictorKind
	br    *runahead.Config
}

// vPred is predictor k alone, labelled by its registry name.
func vPred(k sim.PredictorKind) variant { return variant{label: k.String(), pred: k} }

func vTage64() variant { return vPred(sim.PredTage64) }
func vTage80() variant { return vPred(sim.PredTage80) }
func vMTage() variant  { return vPred(sim.PredMTage) }

func vBR(label string, cfg runahead.Config) variant {
	return variant{label: label, pred: sim.PredTage64, br: &cfg}
}

// run returns the result for workload wl under variant v, with the given
// instruction budget, as a batch of one.
func (s *Suite) run(wl string, v variant, instrs uint64) (*sim.Result, error) {
	p, err := s.resolve(runSpec{wl: wl, v: v, instrs: instrs})
	if err != nil {
		return nil, err
	}
	s.beginBatch()
	defer s.endBatch()
	return s.runPoint(p)
}

// resolve canonicalizes a spec's workload and builds its configuration and
// point ID. Trace workloads canonicalize to their fingerprinted name first,
// so the ID addresses the trace content: two suites pointed at the same
// path share points only while the file's bytes are identical.
func (s *Suite) resolve(sp runSpec) (point, error) {
	wl, err := s.canonicalName(sp.wl)
	if err != nil {
		return point{}, err
	}
	cfg := s.simConfig(sp.v, sp.instrs)
	return point{id: s.pointID(wl, cfg), label: fmt.Sprintf("%s/%s/%d", wl, sp.v.label, sp.instrs),
		wl: wl, v: sp.v, cfg: cfg}, nil
}

// runPoint returns the (cached) result of point p. Safe for concurrent
// callers: the runner executes each point ID at most once and blocks
// duplicates until the owning execution completes. With Options.CacheDir
// set, completed points are loaded from disk instead of simulated; either
// way the same Progress line is buffered, so warm and cold suites produce
// identical output streams.
func (s *Suite) runPoint(p point) (*sim.Result, error) {
	return s.runner.do(p.id, func() (*sim.Result, error) {
		if s.opts.Interrupt != nil {
			if err := s.opts.Interrupt(); err != nil {
				return nil, err
			}
		}
		res, ok := s.cacheLoad(p.id)
		if !ok {
			w, err := s.workload(p.wl)
			if err != nil {
				return nil, err
			}
			if p.cfg.WarmupBarrier && p.cfg.Warmup > 0 {
				res, err = s.executeShared(w, p.cfg)
			} else {
				res, err = s.execute(w, p.cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s under %s: %w", p.wl, p.v.label, err)
			}
			if err := s.cacheStore(p.id, res); err != nil {
				return nil, fmt.Errorf("experiments: %s under %s: run cache: %w", p.wl, p.v.label, err)
			}
		}
		s.progress(p.label, runLine(p.wl, p.v.label, res))
		s.notify(p.label)
		return res, nil
	})
}

// canonicalName resolves "trace:" workload names to their canonical
// fingerprinted form; every other name passes through untouched.
func (s *Suite) canonicalName(wl string) (string, error) {
	if !strings.HasPrefix(wl, workloads.TracePrefix) {
		return wl, nil
	}
	w, err := s.traceWorkload(wl)
	if err != nil {
		return "", err
	}
	return w.Name, nil
}

// traceWorkload resolves one trace-backed workload through the suite memo.
func (s *Suite) traceWorkload(wl string) (*workloads.Workload, error) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if w, ok := s.traceWl[wl]; ok {
		return w, nil
	}
	w, err := workloads.ByName(wl, s.opts.Scale)
	if err != nil {
		return nil, err
	}
	s.traceWl[wl] = w
	s.traceWl[w.Name] = w
	return w, nil
}

// workload fetches the workload a (canonicalized) name denotes.
func (s *Suite) workload(wl string) (*workloads.Workload, error) {
	if strings.HasPrefix(wl, workloads.TracePrefix) {
		return s.traceWorkload(wl)
	}
	return workloads.ByName(wl, s.opts.Scale)
}

// notify delivers one completed point's label to Options.Notify,
// serialized.
func (s *Suite) notify(label string) {
	if s.opts.Notify == nil {
		return
	}
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	s.opts.Notify(label)
}

// namedVariant resolves public (predictor, BR config) names, those of the
// registries' sim.ParsePredictor and runahead.ConfigByName, to a variant
// labelled "<predictor>" or "<predictor>+<br>". A named point that equals
// a figure point has its point ID, so the two share one run and one cache
// entry.
func namedVariant(predictor, brName string) (variant, error) {
	pred, err := sim.ParsePredictor(predictor)
	if err != nil {
		return variant{}, err
	}
	if brName == "" {
		return vPred(pred), nil
	}
	cfg, err := runahead.ConfigByName(brName)
	if err != nil {
		return variant{}, err
	}
	return variant{label: predictor + "+" + brName, pred: pred, br: &cfg}, nil
}

// RunNamed executes (or loads from cache) one simulation point named by its
// public predictor and BR configuration names, at the suite's Instrs
// budget. brName "" runs the predictor alone. Safe for concurrent callers.
func (s *Suite) RunNamed(wl, predictor, brName string) (*sim.Result, error) {
	v, err := namedVariant(predictor, brName)
	if err != nil {
		return nil, err
	}
	return s.run(wl, v, s.opts.Instrs)
}

// TraceNamed simulates the point RunNamed names once more, with tr
// attached. It runs outside the run cache and the worker pool: tracing
// leaves the result unchanged, and the trace is the caller's own artifact.
func (s *Suite) TraceNamed(wl, predictor, brName string, tr *trace.Tracer) (*sim.Result, error) {
	v, err := namedVariant(predictor, brName)
	if err != nil {
		return nil, err
	}
	w, err := s.workload(wl)
	if err != nil {
		return nil, err
	}
	cfg := s.simConfig(v, s.opts.Instrs)
	cfg.Trace = tr
	return sim.Run(w, cfg)
}

// simConfig builds the simulator configuration for one point.
func (s *Suite) simConfig(v variant, instrs uint64) sim.Config {
	return sim.Config{
		Core:          core.DefaultConfig(),
		Predictor:     v.pred,
		BR:            v.br,
		Warmup:        s.opts.Warmup,
		MaxInstrs:     instrs,
		WarmupBarrier: s.opts.ShareWarmup,
	}
}

func runLine(wl, label string, res *sim.Result) string {
	return fmt.Sprintf("%-13s %-12s IPC=%.3f MPKI=%.2f", wl, label, res.IPC, res.MPKI)
}

// mpkiImprovement is the paper's metric: (base - br) / base * 100.
func mpkiImprovement(base, br *sim.Result) float64 {
	if base.MPKI == 0 {
		return 0
	}
	return 100 * (base.MPKI - br.MPKI) / base.MPKI
}

func ipcImprovement(base, br *sim.Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return 100 * (br.IPC/base.IPC - 1)
}

// hardestBranches returns up to n branch PCs with the most mispredictions
// in res (Figure 1's per-benchmark hard-branch set).
func hardestBranches(res *sim.Result, n int) []uint64 {
	type kv struct {
		pc   uint64
		misp uint64
	}
	var all []kv
	for pc, b := range res.PerBranch {
		all = append(all, kv{pc, b.Mispred})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].misp != all[j].misp {
			return all[i].misp > all[j].misp
		}
		return all[i].pc < all[j].pc
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]uint64, len(all))
	for i, e := range all {
		out[i] = e.pc
	}
	return out
}

// mispRateOn computes the misprediction rate (%) of the given branch set in
// res.
func mispRateOn(res *sim.Result, pcs []uint64) float64 {
	var execs, misp uint64
	for _, pc := range pcs {
		if b, ok := res.PerBranch[pc]; ok {
			execs += b.Execs
			misp += b.Mispred
		}
	}
	return 100 * stats.Rate(misp, execs)
}

// perBenchmark runs every benchmark under each of vs as one batch and adds
// one row per benchmark to t, whose cells row computes from that
// benchmark's results in vs order. It returns each column's arithmetic
// mean, for the caller's mean row.
func (s *Suite) perBenchmark(t *stats.Table, vs []variant, row func(rs []*sim.Result) []float64) ([]float64, error) {
	res, err := s.runAll(cross(s.names(), vs, s.opts.Instrs))
	if err != nil {
		return nil, err
	}
	var cols [][]float64
	for i, wl := range s.names() {
		cells := row(res[i*len(vs) : (i+1)*len(vs)])
		if cols == nil {
			cols = make([][]float64, len(cells))
		}
		for j, c := range cells {
			cols[j] = append(cols[j], c)
		}
		t.AddRowf(wl, cells...)
	}
	mean := make([]float64, len(cols))
	for j, c := range cols {
		mean[j] = stats.Mean(c)
	}
	return mean, nil
}

// overBase returns a row function whose cells are f of the first result,
// the baseline, and each later one.
func overBase(f func(base, r *sim.Result) float64) func([]*sim.Result) []float64 {
	return func(rs []*sim.Result) []float64 {
		row := make([]float64, len(rs)-1)
		for i, r := range rs[1:] {
			row[i] = f(rs[0], r)
		}
		return row
	}
}

// Figure1 reproduces the misprediction rate of the hardest branches under
// TAGE-SC-L (64KB), MTAGE-SC (unlimited), and dependence chains (Big Branch
// Runahead). The paper's means: 11% / 9% / 5%.
func (s *Suite) Figure1() (*stats.Table, error) {
	t := stats.NewTable("Figure 1: misprediction rate (%) of hardest branches",
		"benchmark", "tage-sc-l-64kb", "mtage-sc", "dependence-chains")
	vs := []variant{vTage64(), vMTage(), vBR("big", runahead.Big())}
	mean, err := s.perBenchmark(t, vs, func(rs []*sim.Result) []float64 {
		hard := hardestBranches(rs[0], 32)
		return []float64{mispRateOn(rs[0], hard), mispRateOn(rs[1], hard), mispRateOn(rs[2], hard)}
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure2 reproduces the average dependence chain length (paper: < 8 uops,
// capped at 16).
func (s *Suite) Figure2() (*stats.Table, error) {
	t := stats.NewTable("Figure 2: average dependence chain length (micro-ops)",
		"benchmark", "avg-chain-uops")
	mean, err := s.perBenchmark(t, []variant{vBR("mini", runahead.Mini())}, func(rs []*sim.Result) []float64 {
		return []float64{rs[0].AvgChainLen}
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure3 reproduces the increase in micro-ops (and load micro-ops) issued
// due to Branch Runahead (paper mean: +34.3%).
func (s *Suite) Figure3() (*stats.Table, error) {
	t := stats.NewTable("Figure 3: micro-ops issued increase due to Branch Runahead (%)",
		"benchmark", "uops-increase", "load-uops-increase")
	vs := []variant{vTage64(), vBR("mini", runahead.Mini())}
	mean, err := s.perBenchmark(t, vs, func(rs []*sim.Result) []float64 {
		base, br := rs[0], rs[1]
		return []float64{
			100 * (float64(br.CoreUops+br.DCEUops)/float64(base.CoreUops) - 1),
			100 * (float64(br.CoreLoads+br.DCELoads)/float64(base.CoreLoads) - 1),
		}
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure5 reproduces the fraction of dependence chains impacted by
// affectors or guards.
func (s *Suite) Figure5() (*stats.Table, error) {
	t := stats.NewTable("Figure 5: dependence chains with affector/guard triggers (%)",
		"benchmark", "ag-chains-pct")
	mean, err := s.perBenchmark(t, []variant{vBR("mini", runahead.Mini())}, func(rs []*sim.Result) []float64 {
		return []float64{100 * rs[0].AGFraction}
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure10 reproduces the headline result: MPKI and IPC improvement of
// 80KB TAGE-SC-L, Core-Only, Mini and Big Branch Runahead over the 64KB
// TAGE-SC-L baseline. Paper means: MPKI -37.5/-43.6/-47.5%, IPC
// +8.2/+13.7/+16.9% (80KB TAGE: 0.8% MPKI, 0.3% IPC). The IPC means are
// geometric means of the IPC ratios.
func (s *Suite) Figure10() (*stats.Table, error) {
	t := stats.NewTable("Figure 10: improvement over 64KB TAGE-SC-L (%)",
		"benchmark",
		"mpki-tage80", "mpki-core-only", "mpki-mini", "mpki-big",
		"ipc-tage80", "ipc-core-only", "ipc-mini", "ipc-big")
	vs := []variant{
		vTage64(),
		vTage80(),
		vBR("core-only", runahead.CoreOnly()),
		vBR("mini", runahead.Mini()),
		vBR("big", runahead.Big()),
	}
	var ipcRatios [4][]float64
	mean, err := s.perBenchmark(t, vs, func(rs []*sim.Result) []float64 {
		base := rs[0]
		row := make([]float64, 8)
		for i, r := range rs[1:] {
			row[i] = mpkiImprovement(base, r)
			row[4+i] = ipcImprovement(base, r)
			ipcRatios[i] = append(ipcRatios[i], r.IPC/base.IPC)
		}
		return row
	})
	if err != nil {
		return nil, err
	}
	for i, ratios := range ipcRatios {
		mean[4+i] = 100 * (stats.GeoMean(ratios) - 1)
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure11Top compares MTAGE-SC, Big Branch Runahead and their combination
// (MPKI improvement over 64KB TAGE-SC-L).
func (s *Suite) Figure11Top() (*stats.Table, error) {
	t := stats.NewTable("Figure 11 (top): MPKI improvement over 64KB TAGE-SC-L (%)",
		"benchmark", "mtage", "big-br", "mtage+big-br")
	big := runahead.Big()
	vs := []variant{vTage64(), vMTage(), vBR("big", big), {label: "mtage+big", pred: sim.PredMTage, br: &big}}
	mean, err := s.perBenchmark(t, vs, overBase(mpkiImprovement))
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure11Bottom compares the three chain initiation policies (MPKI
// improvement of Mini Branch Runahead over the baseline). The paper's
// ordering: Non-speculative < Independent-early < Predictive.
func (s *Suite) Figure11Bottom() (*stats.Table, error) {
	t := stats.NewTable("Figure 11 (bottom): MPKI improvement by initiation policy (%)",
		"benchmark", "non-speculative", "independent-early", "predictive")
	mk := func(m runahead.InitMode, label string) variant {
		cfg := runahead.Mini()
		cfg.InitMode = m
		return vBR(label, cfg)
	}
	vs := []variant{
		vTage64(),
		mk(runahead.NonSpeculative, "mini-nonspec"),
		mk(runahead.IndependentEarly, "mini-indep"),
		mk(runahead.Predictive, "mini"),
	}
	mean, err := s.perBenchmark(t, vs, overBase(mpkiImprovement))
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure12 reproduces the prediction breakdown for targeted branches:
// inactive / late / throttled / incorrect / correct.
func (s *Suite) Figure12() (*stats.Table, error) {
	t := stats.NewTable("Figure 12: prediction breakdown for targeted branches (%)",
		"benchmark", "inactive", "late", "throttled", "incorrect", "correct")
	keys := []string{"inactive", "late", "throttled", "incorrect", "correct"}
	mean, err := s.perBenchmark(t, []variant{vBR("mini", runahead.Mini())}, func(rs []*sim.Result) []float64 {
		var total uint64
		for _, k := range keys {
			total += rs[0].Breakdown[k]
		}
		row := make([]float64, len(keys))
		for i, k := range keys {
			row[i] = stats.Pct(rs[0].Breakdown[k], total)
		}
		return row
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// SweepPoint is one Figure 13 configuration.
type SweepPoint struct {
	Param string
	Value int
	// MPKIImprovement is relative to Mini Branch Runahead (the paper's
	// y-axis), averaged over the sweep workloads.
	MPKIImprovement float64
}

// sweepAxis is one Figure 13 parameter axis.
type sweepAxis struct {
	name   string
	values []int
	apply  func(*runahead.Config, int)
}

// sweepAxes are the Figure 13 per-parameter sweeps from Mini toward (and
// one step beyond) Big. Every value must pass runahead.Config.Validate
// when applied to Mini — pinned by TestSweepAxesValidate.
var sweepAxes = []sweepAxis{
	{"chain-cache", []int{16, 32, 64, 128, 256, 1024},
		func(c *runahead.Config, v int) { c.ChainCacheSize = v }},
	{"window", []int{16, 32, 64, 128, 256, 1024},
		func(c *runahead.Config, v int) { c.Window = v }},
	{"pq-entries", []int{32, 64, 128, 256, 512, 1024},
		func(c *runahead.Config, v int) { c.QueueEntries = v }},
	{"ceb-entries", []int{128, 256, 512, 1024, 2048},
		func(c *runahead.Config, v int) { c.CEBEntries = v }},
	{"hbt-entries", []int{16, 32, 64, 128, 1024},
		func(c *runahead.Config, v int) { c.HBTEntries = v }},
	{"max-chain-len", []int{8, 16, 32, 64, 128},
		func(c *runahead.Config, v int) { c.MaxChainLen = v }},
}

// Figure13 sweeps the Mini configuration's parameters individually toward
// Big, reporting MPKI improvement relative to Mini. The paper finds window
// size and chain cache size dominate the Mini-to-Big gap. Every axis
// includes Mini's own value, whose points equal the Mini reference and run
// once.
func (s *Suite) Figure13() (*stats.Table, []SweepPoint, error) {
	t := stats.NewTable("Figure 13: MPKI improvement relative to Mini (%), per-parameter sweep",
		"parameter", "value", "mpki-improvement-vs-mini")

	// The Mini reference, then every axis point, as one batch.
	vs := []variant{vBR("mini", runahead.Mini())}
	for _, ax := range sweepAxes {
		for _, v := range ax.values {
			cfg := runahead.Mini()
			ax.apply(&cfg, v)
			vs = append(vs, vBR(fmt.Sprintf("mini-%s-%d", ax.name, v), cfg))
		}
	}
	names := s.sweepNames()
	res, err := s.runAll(cross(names, vs, s.opts.SweepInstrs))
	if err != nil {
		return nil, nil, err
	}

	var points []SweepPoint
	k := 0
	for _, ax := range sweepAxes {
		for _, v := range ax.values {
			k++
			var imps []float64
			for i := range names {
				base := res[i*len(vs)].MPKI
				if base > 0 {
					imps = append(imps, 100*(base-res[i*len(vs)+k].MPKI)/base)
				}
			}
			imp := stats.Mean(imps)
			points = append(points, SweepPoint{Param: ax.name, Value: v, MPKIImprovement: imp})
			t.AddRow(ax.name, fmt.Sprintf("%d", v), fmt.Sprintf("%.2f", imp))
		}
	}
	return t, points, nil
}

// Figure14 reproduces the energy impact of the three Branch Runahead
// configurations (negative = energy saved; the paper's mean is negative,
// driven by shorter run times).
func (s *Suite) Figure14() (*stats.Table, error) {
	t := stats.NewTable("Figure 14: energy change vs baseline (%); lower is better",
		"benchmark", "core-only", "mini", "big")
	vs := []variant{
		vTage64(),
		vBR("core-only", runahead.CoreOnly()),
		vBR("mini", runahead.Mini()),
		vBR("big", runahead.Big()),
	}
	mean, err := s.perBenchmark(t, vs, overBase(func(base, r *sim.Result) float64 {
		return energy.Delta(base.Activity, r.Activity)
	}))
	if err != nil {
		return nil, err
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// figure15Predictors is the competing-predictor frontier: the Table 1
// TAGE-SC-L baseline, the classical baselines (gshare, perceptron,
// tournament), and the two competing H2P attacks (LDBP's load-stride
// execution, Bullseye's targeted dual perceptron).
func figure15Predictors() []sim.PredictorKind {
	return []sim.PredictorKind{
		sim.PredTage64, sim.PredGshare, sim.PredPerceptron,
		sim.PredTournament, sim.PredLDBP, sim.PredBullseye,
	}
}

// Figure15 is the competing-predictor head-to-head: every frontier
// predictor standalone and with Branch Runahead (Mini) layered on top,
// absolute MPKI and IPC per benchmark. One row per benchmark/predictor
// pair; the mean rows aggregate per predictor (arithmetic mean MPKI,
// geometric mean IPC). The question the figure answers: does any
// competing predictor reach runahead's coverage of impossible-to-predict
// branches, and does runahead still help when layered over each.
func (s *Suite) Figure15() (*stats.Table, error) {
	t := stats.NewTable("Figure 15: competing predictors vs Branch Runahead (Mini)",
		"benchmark/predictor", "mpki", "ipc", "mpki+br", "ipc+br")
	preds := figure15Predictors()
	vs := make([]variant, 0, 2*len(preds))
	for _, p := range preds {
		br := runahead.Mini()
		vs = append(vs, vPred(p), variant{label: p.String() + "+br", pred: p, br: &br})
	}
	res, err := s.runAll(cross(s.names(), vs, s.opts.Instrs))
	if err != nil {
		return nil, err
	}
	type agg struct{ mpki, ipc, mpkiBR, ipcBR []float64 }
	aggs := make([]agg, len(preds))
	for w, wl := range s.names() {
		for i, p := range preds {
			solo, with := res[w*len(vs)+2*i], res[w*len(vs)+2*i+1]
			t.AddRowf(wl+"/"+p.String(), solo.MPKI, solo.IPC, with.MPKI, with.IPC)
			aggs[i].mpki = append(aggs[i].mpki, solo.MPKI)
			aggs[i].ipc = append(aggs[i].ipc, solo.IPC)
			aggs[i].mpkiBR = append(aggs[i].mpkiBR, with.MPKI)
			aggs[i].ipcBR = append(aggs[i].ipcBR, with.IPC)
		}
	}
	for i, p := range preds {
		t.AddRowf("mean/"+p.String(),
			stats.Mean(aggs[i].mpki), stats.GeoMean(aggs[i].ipc),
			stats.Mean(aggs[i].mpkiBR), stats.GeoMean(aggs[i].ipcBR))
	}
	return t, nil
}

// figures is the figure registry, in the paper's order: the names brexp
// -figure and brserve figure requests accept, each with the Suite method
// that builds its table.
var figures = []struct {
	name  string
	table func(*Suite) (*stats.Table, error)
}{
	{"1", (*Suite).Figure1},
	{"2", (*Suite).Figure2},
	{"3", (*Suite).Figure3},
	{"5", (*Suite).Figure5},
	{"10", (*Suite).Figure10},
	{"11top", (*Suite).Figure11Top},
	{"11bottom", (*Suite).Figure11Bottom},
	{"12", (*Suite).Figure12},
	{"13", func(s *Suite) (*stats.Table, error) {
		t, _, err := s.Figure13()
		return t, err
	}},
	{"14", (*Suite).Figure14},
	{"15", (*Suite).Figure15},
}

// FigureByName returns the function that builds the named figure's table.
func FigureByName(name string) (func(*Suite) (*stats.Table, error), error) {
	for _, f := range figures {
		if f.name == name {
			return f.table, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (want one of %v)", name, FigureNames())
}

// FigureNames lists every figure name, in the paper's order.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// Table1 renders the baseline configuration (the paper's Table 1).
func Table1() *stats.Table {
	c := core.DefaultConfig()
	t := stats.NewTable("Table 1: baseline configuration", "component", "value")
	t.AddRow("core", fmt.Sprintf("%d-wide issue, %d-entry ROB, %d-entry RS", c.IssueWidth, c.ROBSize, c.RSSize))
	t.AddRow("branch predictor", "64KB-class TAGE-SC-L")
	t.AddRow("L1 caches", "32KB I / 32KB D, 64B lines, 2 D ports, 3-cycle hit, 8-way")
	t.AddRow("L2 cache", "2MB 12-way, 18-cycle, write-back")
	t.AddRow("memory controller", "64-entry queue")
	t.AddRow("prefetcher", "stream: 64 streams, distance 16, fills LLC")
	t.AddRow("DRAM", "DDR4-2400-class, bank/row model")
	t.AddRow("WPB", "128-entry, 4-way, max merge distance 256 uops")
	return t
}

// Table2 renders the three Branch Runahead configurations with their
// estimated storage.
func Table2() *stats.Table {
	t := stats.NewTable("Table 2: Branch Runahead configurations",
		"parameter", "core-only", "mini", "big")
	co, mi, bg := runahead.CoreOnly(), runahead.Mini(), runahead.Big()
	row := func(name string, f func(runahead.Config) string) {
		t.AddRow(name, f(co), f(mi), f(bg))
	}
	row("chain cache", func(c runahead.Config) string { return fmt.Sprintf("%d-entry", c.ChainCacheSize) })
	row("max chain length", func(c runahead.Config) string { return fmt.Sprintf("%d uops", c.MaxChainLen) })
	row("window", func(c runahead.Config) string {
		if c.SharedWithCore {
			return "shared with core"
		}
		return fmt.Sprintf("%d instances", c.Window)
	})
	row("prediction queues", func(c runahead.Config) string {
		return fmt.Sprintf("%dx %d-entry", c.NumQueues, c.QueueEntries)
	})
	row("HBT", func(c runahead.Config) string { return fmt.Sprintf("%d-entry", c.HBTEntries) })
	row("CEB", func(c runahead.Config) string { return fmt.Sprintf("%d-entry", c.CEBEntries) })
	row("initiation", func(c runahead.Config) string { return c.InitMode.String() })
	row("storage", func(c runahead.Config) string {
		return fmt.Sprintf("%.1f KB", float64(c.StorageBits())/8192)
	})
	return t
}

// AreaTable renders the §5.2 area estimates.
func AreaTable() *stats.Table {
	t := stats.NewTable("Area (22nm, McPAT-style model)", "structure", "mm^2", "fraction-of-core")
	add := func(name string, cfg energy.DCEConfigArea) {
		a := energy.DCEArea(cfg)
		t.AddRow(name, fmt.Sprintf("%.2f", a), fmt.Sprintf("%.1f%%", 100*energy.DCEAreaFraction(cfg)))
	}
	mi := runahead.Mini()
	add("DCE (Mini)", energy.DCEConfigArea{ChainCacheEntries: mi.ChainCacheSize, Window: mi.Window, HBTEntries: mi.HBTEntries})
	co := runahead.CoreOnly()
	add("DCE (Core-Only)", energy.DCEConfigArea{ChainCacheEntries: co.ChainCacheSize, Window: co.Window,
		SharedWithCore: true, HBTEntries: co.HBTEntries})
	t.AddRow("baseline core", fmt.Sprintf("%.2f", energy.CoreAreaMM2), "100%")
	t.AddRow("64KB TAGE-SC-L", fmt.Sprintf("%.2f", energy.TageAreaMM2),
		fmt.Sprintf("%.1f%%", 100*energy.TageAreaMM2/energy.CoreAreaMM2))
	return t
}
