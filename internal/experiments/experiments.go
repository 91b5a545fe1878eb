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
	// Progress, when non-nil, receives one line per completed run. Within a
	// figure, lines are flushed in sorted run-key order once the figure's
	// whole batch has completed, so the stream is reproducible for any Jobs
	// value. The callback itself is always invoked from a single goroutine.
	Progress func(string)
	// Jobs bounds how many simulations run concurrently; <= 0 selects
	// GOMAXPROCS. Results are byte-identical for every value: each run owns
	// its whole simulator object graph, and tables and Progress lines are
	// assembled from sorted keys after the batch completes.
	Jobs int
	// CacheDir, when non-empty, enables the persistent run cache: every
	// completed simulation point is written to this directory
	// (content-addressed by run key and codec version) and reused by later
	// suite invocations, which then execute zero simulations and render
	// byte-identical tables. Empty turns off both cache reads and writes.
	// See cache.go and DESIGN.md §10.
	CacheDir string
	// Interrupt, when non-nil, is polled at the start of every simulation
	// point; a non-nil return aborts that point (and therefore the figure
	// or run requesting it) with the returned error before any work —
	// including a cache probe — happens. Job cancellation in
	// internal/server is built on it. It is called concurrently from
	// worker goroutines and must be safe for that.
	Interrupt func() error
	// Notify, when non-nil, is invoked with the run key each time a point
	// completes, whether served from cache or executed. Unlike Progress it
	// fires in completion order — it exists for real-time heartbeats
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

// Suite runs simulations on demand and caches them, so the baseline run of
// a benchmark is shared across figures. Runs execute on a bounded worker
// pool (Options.Jobs) with singleflight deduplication, and every FigureN
// first submits its full run set as one batch before assembling the table
// from completed results — see runner.go.
type Suite struct {
	opts   Options
	runner *runner

	// progressMu guards the Progress batching state: while a batch is open,
	// completed runs buffer their lines keyed by run key and endBatch
	// flushes them sorted.
	progressMu sync.Mutex
	batchDepth int
	pending    map[string]string

	// notifyMu serializes Options.Notify invocations across workers.
	notifyMu sync.Mutex

	// traceMu guards traceWl, the memo of resolved trace-backed workloads
	// keyed by both the requested spec ("trace:name", "trace:path") and the
	// canonical fingerprinted name it resolved to — so each trace file is
	// read and validated once per suite, and the miss path of run can fetch
	// the workload its canonicalized key was derived from.
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

// variant describes one simulator configuration.
type variant struct {
	key  string
	pred sim.PredictorKind
	br   *runahead.Config
}

// vPred is predictor k alone, keyed by its registry name.
func vPred(k sim.PredictorKind) variant { return variant{key: k.String(), pred: k} }

func vTage64() variant { return vPred(sim.PredTage64) }
func vTage80() variant { return vPred(sim.PredTage80) }
func vMTage() variant  { return vPred(sim.PredMTage) }

func vBR(name string, cfg runahead.Config) variant {
	c := cfg
	return variant{key: name, pred: sim.PredTage64, br: &c}
}

func vMTageBR(cfg runahead.Config) variant {
	c := cfg
	return variant{key: "mtage+big", pred: sim.PredMTage, br: &c}
}

// run returns the (cached) result for workload wl under variant v, with the
// given instruction budget. Safe for concurrent callers: the runner
// executes each key at most once and blocks duplicates until the owning
// execution completes. With Options.CacheDir set, completed points are
// loaded from disk instead of simulated; either way the same Progress line
// is emitted, so warm and cold suites produce identical output streams.
func (s *Suite) run(wl string, v variant, instrs uint64) (*sim.Result, error) {
	// Trace workloads canonicalize to their fingerprinted name before the
	// key is formed, so the run cache addresses the trace content: two
	// suites pointed at the same path hit the same entries only while the
	// file's bytes are identical.
	wl, err := s.canonicalName(wl)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%s/%d", wl, v.key, instrs)
	return s.runner.do(key, func() (*sim.Result, error) {
		if s.opts.Interrupt != nil {
			if err := s.opts.Interrupt(); err != nil {
				return nil, err
			}
		}
		cfg := s.simConfig(v, instrs)
		if res, ok := s.cacheLoad(key, cfg); ok {
			s.progress(key, runLine(wl, v.key, res))
			s.notify(key)
			return res, nil
		}
		w, err := s.workload(wl)
		if err != nil {
			return nil, err
		}
		var res *sim.Result
		if cfg.WarmupBarrier && cfg.Warmup > 0 {
			res, err = s.executeShared(w, cfg)
		} else {
			res, err = s.execute(w, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s under %s: %w", wl, v.key, err)
		}
		if err := s.cacheStore(key, cfg, res); err != nil {
			return nil, fmt.Errorf("experiments: %s under %s: run cache: %w", wl, v.key, err)
		}
		s.progress(key, runLine(wl, v.key, res))
		s.notify(key)
		return res, nil
	})
}

// canonicalName resolves "trace:" workload names to their canonical
// fingerprinted form; every other name passes through untouched (so the keys
// of all pre-existing runs are byte-identical to what they were before trace
// workloads existed).
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

// notify delivers one completed run key to Options.Notify, serialized.
func (s *Suite) notify(key string) {
	if s.opts.Notify == nil {
		return
	}
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	s.opts.Notify(key)
}

// namedVariant resolves public (predictor, BR config) names — the
// registries' sim.ParsePredictor and runahead.ConfigByName — onto the
// figures' variant-key convention so named runs alias onto figure cache
// entries: a bare predictor keeps its own key ("tage64", "ldbp"), tage64
// plus a BR config takes the config's key ("mini", "big", "core-only" — the
// Figure 10 series), mtage+big is Figure 11's "mtage+big", and any other
// predictor with Mini layered on top is Figure 15's "<pred>+br". Remaining
// combinations get the explicit "<pred>+<br>" key.
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
	switch {
	case pred == sim.PredTage64:
		return variant{key: brName, pred: pred, br: &cfg}, nil
	case pred == sim.PredMTage && brName == "big":
		return variant{key: "mtage+big", pred: pred, br: &cfg}, nil
	case brName == "mini":
		return variant{key: predictor + "+br", pred: pred, br: &cfg}, nil
	default:
		return variant{key: predictor + "+" + brName, pred: pred, br: &cfg}, nil
	}
}

// RunNamed executes (or loads from cache) one simulation point named by its
// public predictor and BR configuration names, at the suite's Instrs
// budget. brName "" runs the predictor alone. Safe for concurrent callers,
// like run.
func (s *Suite) RunNamed(wl, predictor, brName string) (*sim.Result, error) {
	v, err := namedVariant(predictor, brName)
	if err != nil {
		return nil, err
	}
	return s.run(wl, v, s.opts.Instrs)
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

func runLine(wl, vkey string, res *sim.Result) string {
	return fmt.Sprintf("%-13s %-12s IPC=%.3f MPKI=%.2f", wl, vkey, res.IPC, res.MPKI)
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

// Figure1 reproduces the misprediction rate of the hardest branches under
// TAGE-SC-L (64KB), MTAGE-SC (unlimited), and dependence chains (Big Branch
// Runahead). The paper's means: 11% / 9% / 5%.
func (s *Suite) Figure1() (*stats.Table, error) {
	t := stats.NewTable("Figure 1: misprediction rate (%) of hardest branches",
		"benchmark", "tage-sc-l-64kb", "mtage-sc", "dependence-chains")
	vs := []variant{vTage64(), vMTage(), vBR("big", runahead.Big())}
	if err := s.prefetch(cross(s.names(), vs, s.opts.Instrs)); err != nil {
		return nil, err
	}
	var a, b, c []float64
	for _, wl := range s.names() {
		base, err := s.run(wl, vTage64(), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		mt, err := s.run(wl, vMTage(), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		br, err := s.run(wl, vBR("big", runahead.Big()), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		hard := hardestBranches(base, 32)
		ra, rb, rc := mispRateOn(base, hard), mispRateOn(mt, hard), mispRateOn(br, hard)
		a, b, c = append(a, ra), append(b, rb), append(c, rc)
		t.AddRowf(wl, ra, rb, rc)
	}
	t.AddRowf("mean", stats.Mean(a), stats.Mean(b), stats.Mean(c))
	return t, nil
}

// Figure2 reproduces the average dependence chain length (paper: < 8 uops,
// capped at 16).
func (s *Suite) Figure2() (*stats.Table, error) {
	t := stats.NewTable("Figure 2: average dependence chain length (micro-ops)",
		"benchmark", "avg-chain-uops")
	if err := s.prefetch(cross(s.names(), []variant{vBR("mini", runahead.Mini())}, s.opts.Instrs)); err != nil {
		return nil, err
	}
	var lens []float64
	for _, wl := range s.names() {
		br, err := s.run(wl, vBR("mini", runahead.Mini()), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		lens = append(lens, br.AvgChainLen)
		t.AddRowf(wl, br.AvgChainLen)
	}
	t.AddRowf("mean", stats.Mean(lens))
	return t, nil
}

// Figure3 reproduces the increase in micro-ops (and load micro-ops) issued
// due to Branch Runahead (paper mean: +34.3%).
func (s *Suite) Figure3() (*stats.Table, error) {
	t := stats.NewTable("Figure 3: micro-ops issued increase due to Branch Runahead (%)",
		"benchmark", "uops-increase", "load-uops-increase")
	vs := []variant{vTage64(), vBR("mini", runahead.Mini())}
	if err := s.prefetch(cross(s.names(), vs, s.opts.Instrs)); err != nil {
		return nil, err
	}
	var us, ls []float64
	for _, wl := range s.names() {
		base, err := s.run(wl, vTage64(), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		br, err := s.run(wl, vBR("mini", runahead.Mini()), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		du := 100 * (float64(br.CoreUops+br.DCEUops)/float64(base.CoreUops) - 1)
		dl := 100 * (float64(br.CoreLoads+br.DCELoads)/float64(base.CoreLoads) - 1)
		us, ls = append(us, du), append(ls, dl)
		t.AddRowf(wl, du, dl)
	}
	t.AddRowf("mean", stats.Mean(us), stats.Mean(ls))
	return t, nil
}

// Figure5 reproduces the fraction of dependence chains impacted by
// affectors or guards.
func (s *Suite) Figure5() (*stats.Table, error) {
	t := stats.NewTable("Figure 5: dependence chains with affector/guard triggers (%)",
		"benchmark", "ag-chains-pct")
	if err := s.prefetch(cross(s.names(), []variant{vBR("mini", runahead.Mini())}, s.opts.Instrs)); err != nil {
		return nil, err
	}
	var fs []float64
	for _, wl := range s.names() {
		br, err := s.run(wl, vBR("mini", runahead.Mini()), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		f := 100 * br.AGFraction
		fs = append(fs, f)
		t.AddRowf(wl, f)
	}
	t.AddRowf("mean", stats.Mean(fs))
	return t, nil
}

// Figure10 reproduces the headline result: MPKI and IPC improvement of
// 80KB TAGE-SC-L, Core-Only, Mini and Big Branch Runahead over the 64KB
// TAGE-SC-L baseline. Paper means: MPKI -37.5/-43.6/-47.5%, IPC
// +8.2/+13.7/+16.9% (80KB TAGE: 0.8% MPKI, 0.3% IPC).
func (s *Suite) Figure10() (*stats.Table, error) {
	t := stats.NewTable("Figure 10: improvement over 64KB TAGE-SC-L (%)",
		"benchmark",
		"mpki-tage80", "mpki-core-only", "mpki-mini", "mpki-big",
		"ipc-tage80", "ipc-core-only", "ipc-mini", "ipc-big")
	vs := []variant{
		vTage80(),
		vBR("core-only", runahead.CoreOnly()),
		vBR("mini", runahead.Mini()),
		vBR("big", runahead.Big()),
	}
	if err := s.prefetch(cross(s.names(), append([]variant{vTage64()}, vs...), s.opts.Instrs)); err != nil {
		return nil, err
	}
	sums := make([][]float64, 8)
	var ipcRatios [4][]float64
	for _, wl := range s.names() {
		base, err := s.run(wl, vTage64(), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 8)
		for i, v := range vs {
			r, err := s.run(wl, v, s.opts.Instrs)
			if err != nil {
				return nil, err
			}
			row[i] = mpkiImprovement(base, r)
			row[4+i] = ipcImprovement(base, r)
			ipcRatios[i] = append(ipcRatios[i], r.IPC/base.IPC)
		}
		for i, v := range row {
			sums[i] = append(sums[i], v)
		}
		t.AddRowf(wl, row...)
	}
	mean := make([]float64, 8)
	for i := 0; i < 4; i++ {
		mean[i] = stats.Mean(sums[i])
		mean[4+i] = 100 * (stats.GeoMean(ipcRatios[i]) - 1)
	}
	t.AddRowf("mean", mean...)
	return t, nil
}

// Figure11Top compares MTAGE-SC, Big Branch Runahead and their combination
// (MPKI improvement over 64KB TAGE-SC-L).
func (s *Suite) Figure11Top() (*stats.Table, error) {
	t := stats.NewTable("Figure 11 (top): MPKI improvement over 64KB TAGE-SC-L (%)",
		"benchmark", "mtage", "big-br", "mtage+big-br")
	vs := []variant{vMTage(), vBR("big", runahead.Big()), vMTageBR(runahead.Big())}
	if err := s.prefetch(cross(s.names(), append([]variant{vTage64()}, vs...), s.opts.Instrs)); err != nil {
		return nil, err
	}
	sums := make([][]float64, len(vs))
	for _, wl := range s.names() {
		base, err := s.run(wl, vTage64(), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(vs))
		for i, v := range vs {
			r, err := s.run(wl, v, s.opts.Instrs)
			if err != nil {
				return nil, err
			}
			row[i] = mpkiImprovement(base, r)
			sums[i] = append(sums[i], row[i])
		}
		t.AddRowf(wl, row...)
	}
	mean := make([]float64, len(vs))
	for i := range vs {
		mean[i] = stats.Mean(sums[i])
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
	mk := func(m runahead.InitMode, key string) variant {
		cfg := runahead.Mini()
		cfg.InitMode = m
		return vBR(key, cfg)
	}
	vs := []variant{
		mk(runahead.NonSpeculative, "mini-nonspec"),
		mk(runahead.IndependentEarly, "mini-indep"),
		mk(runahead.Predictive, "mini"),
	}
	if err := s.prefetch(cross(s.names(), append([]variant{vTage64()}, vs...), s.opts.Instrs)); err != nil {
		return nil, err
	}
	sums := make([][]float64, len(vs))
	for _, wl := range s.names() {
		base, err := s.run(wl, vTage64(), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(vs))
		for i, v := range vs {
			r, err := s.run(wl, v, s.opts.Instrs)
			if err != nil {
				return nil, err
			}
			row[i] = mpkiImprovement(base, r)
			sums[i] = append(sums[i], row[i])
		}
		t.AddRowf(wl, row...)
	}
	mean := make([]float64, len(vs))
	for i := range vs {
		mean[i] = stats.Mean(sums[i])
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
	if err := s.prefetch(cross(s.names(), []variant{vBR("mini", runahead.Mini())}, s.opts.Instrs)); err != nil {
		return nil, err
	}
	sums := make([][]float64, len(keys))
	for _, wl := range s.names() {
		br, err := s.run(wl, vBR("mini", runahead.Mini()), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		var total uint64
		for _, k := range keys {
			total += br.Breakdown[k]
		}
		row := make([]float64, len(keys))
		for i, k := range keys {
			row[i] = stats.Pct(br.Breakdown[k], total)
			sums[i] = append(sums[i], row[i])
		}
		t.AddRowf(wl, row...)
	}
	mean := make([]float64, len(keys))
	for i := range keys {
		mean[i] = stats.Mean(sums[i])
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
// size and chain cache size dominate the Mini-to-Big gap.
func (s *Suite) Figure13() (*stats.Table, []SweepPoint, error) {
	axes := sweepAxes
	t := stats.NewTable("Figure 13: MPKI improvement relative to Mini (%), per-parameter sweep",
		"parameter", "value", "mpki-improvement-vs-mini")
	var points []SweepPoint

	// Enumerate the whole sweep (mini reference plus every axis point) and
	// submit it as one batch.
	specs := cross(s.sweepNames(), []variant{vBR("mini", runahead.Mini())}, s.opts.SweepInstrs)
	for _, ax := range axes {
		for _, v := range ax.values {
			cfg := runahead.Mini()
			ax.apply(&cfg, v)
			specs = append(specs,
				cross(s.sweepNames(), []variant{vBR(fmt.Sprintf("mini-%s-%d", ax.name, v), cfg)}, s.opts.SweepInstrs)...)
		}
	}
	if err := s.prefetch(specs); err != nil {
		return nil, nil, err
	}

	// Mini reference at sweep budget.
	miniMPKI := make(map[string]float64)
	for _, wl := range s.sweepNames() {
		r, err := s.run(wl, vBR("mini", runahead.Mini()), s.opts.SweepInstrs)
		if err != nil {
			return nil, nil, err
		}
		miniMPKI[wl] = r.MPKI
	}
	for _, ax := range axes {
		for _, v := range ax.values {
			cfg := runahead.Mini()
			ax.apply(&cfg, v)
			var imps []float64
			for _, wl := range s.sweepNames() {
				r, err := s.run(wl, vBR(fmt.Sprintf("mini-%s-%d", ax.name, v), cfg), s.opts.SweepInstrs)
				if err != nil {
					return nil, nil, err
				}
				base := miniMPKI[wl]
				if base > 0 {
					imps = append(imps, 100*(base-r.MPKI)/base)
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
		vBR("core-only", runahead.CoreOnly()),
		vBR("mini", runahead.Mini()),
		vBR("big", runahead.Big()),
	}
	if err := s.prefetch(cross(s.names(), append([]variant{vTage64()}, vs...), s.opts.Instrs)); err != nil {
		return nil, err
	}
	sums := make([][]float64, len(vs))
	for _, wl := range s.names() {
		base, err := s.run(wl, vTage64(), s.opts.Instrs)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(vs))
		for i, v := range vs {
			r, err := s.run(wl, v, s.opts.Instrs)
			if err != nil {
				return nil, err
			}
			row[i] = energy.Delta(base.Activity, r.Activity)
			sums[i] = append(sums[i], row[i])
		}
		t.AddRowf(wl, row...)
	}
	mean := make([]float64, len(vs))
	for i := range vs {
		mean[i] = stats.Mean(sums[i])
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
		vs = append(vs, vPred(p))
		br := runahead.Mini()
		vs = append(vs, variant{key: p.String() + "+br", pred: p, br: &br})
	}
	if err := s.prefetch(cross(s.names(), vs, s.opts.Instrs)); err != nil {
		return nil, err
	}
	type agg struct{ mpki, ipc, mpkiBR, ipcBR []float64 }
	aggs := make([]agg, len(preds))
	for _, wl := range s.names() {
		for i, p := range preds {
			solo, err := s.run(wl, vs[2*i], s.opts.Instrs)
			if err != nil {
				return nil, err
			}
			with, err := s.run(wl, vs[2*i+1], s.opts.Instrs)
			if err != nil {
				return nil, err
			}
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
