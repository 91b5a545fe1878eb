// The parallel run scheduler. Simulation points are embarrassingly
// parallel — each sim.Run owns its entire object graph (core, hierarchy,
// predictor, DCE) — so the suite executes them on a bounded worker pool and
// shares results through a singleflight cache keyed by point ID.
// Everything order-dependent (table assembly, Progress emission) happens
// outside the pool, in spec or sorted label order, so suite output is
// byte-identical for any worker count.
//
// This file is the only place in the module where goroutines and sync
// primitives are allowed; brlint's goroutine-safety rule keeps the
// simulation packages single-threaded (see DESIGN.md §8).
package experiments

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/sim"
)

// runner executes suite runs on a bounded worker pool with singleflight
// deduplication on the point ID. Its entries map doubles as the
// thread-safe result store: an ID's entry is created exactly once and its
// result is shared by every later requester.
type runner struct {
	sem chan struct{} // one slot per worker

	mu       sync.Mutex
	entries  map[uint64]*entry
	warmups  map[string]*warmEntry
	executed int // simulations actually executed (deduplicated requests excluded)
}

// entry is one singleflight slot. The first requester of an ID owns the
// computation; later requesters block on done and share res/err.
type entry struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// warmEntry is one singleflight slot for a shared warm machine.
type warmEntry struct {
	done chan struct{}
	warm *sim.WarmMachine
	err  error
}

// newRunner builds a pool with the given concurrency; jobs <= 0 selects
// GOMAXPROCS.
func newRunner(jobs int) *runner {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &runner{
		sem:     make(chan struct{}, jobs),
		entries: make(map[uint64]*entry),
		warmups: make(map[string]*warmEntry),
	}
}

// do returns the result for point id, invoking compute at most once per ID
// across all concurrent callers.
func (r *runner) do(id uint64, compute func() (*sim.Result, error)) (*sim.Result, error) {
	r.mu.Lock()
	if e, ok := r.entries[id]; ok {
		r.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &entry{done: make(chan struct{})}
	r.entries[id] = e
	r.mu.Unlock()

	r.sem <- struct{}{} // acquire a worker slot
	e.res, e.err = compute()
	<-r.sem

	close(e.done)
	return e.res, e.err
}

// warmup returns the shared warm machine for key, invoking compute at most
// once per key across all concurrent callers. Unlike do, it acquires no
// worker slot: warmups happen inside a run's compute, whose caller already
// holds a slot, so computing on that slot keeps the pool deadlock-free even
// at one job. A duplicate requester hands its worker slot back while it
// idles on done and re-acquires one afterwards — otherwise N queued runs
// of one workload pin N slots while a single warmup computes, starving
// runs of other workloads that could use the cores.
func (r *runner) warmup(key string, compute func() (*sim.WarmMachine, error)) (*sim.WarmMachine, error) {
	r.mu.Lock()
	if e, ok := r.warmups[key]; ok {
		r.mu.Unlock()
		select {
		case <-e.done:
			// Already complete: keep the slot, no yield needed.
		default:
			<-r.sem // release the caller's slot while idle
			<-e.done
			r.sem <- struct{}{} // re-acquire before resuming the run
		}
		return e.warm, e.err
	}
	e := &warmEntry{done: make(chan struct{})}
	r.warmups[key] = e
	r.mu.Unlock()

	e.warm, e.err = compute()
	close(e.done)
	return e.warm, e.err
}

// noteExecuted records one actually-executed simulation. It is called from
// the compute path only when a point really simulates — persistent-cache
// hits skip it, which is how the warm-suite tests observe Executed() == 0.
func (r *runner) noteExecuted() {
	r.mu.Lock()
	r.executed++
	r.mu.Unlock()
}

// Executed returns the number of computations actually run.
func (r *runner) Executed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// runSpec names one (workload, variant, budget) simulation point.
type runSpec struct {
	wl     string
	v      variant
	instrs uint64
}

// point is one resolved simulation point.
type point struct {
	id    uint64
	label string // "<workload>/<variant label>/<instrs>"
	wl    string // canonical workload name
	v     variant
	cfg   sim.Config
}

// cross enumerates names × variants at one instruction budget.
func cross(names []string, vs []variant, instrs uint64) []runSpec {
	specs := make([]runSpec, 0, len(names)*len(vs))
	for _, wl := range names {
		for _, v := range vs {
			specs = append(specs, runSpec{wl: wl, v: v, instrs: instrs})
		}
	}
	return specs
}

// runAll submits a figure's whole run set to the pool as one batch, waits
// for it and returns the results in spec order, so the figure's assembly
// reads each result once. Specs with equal point IDs run
// once, under the label of the first of them in enumeration order.
// Progress lines buffered during the batch are flushed in sorted label
// order. The returned error is the first failing spec's in enumeration
// order, independent of completion order.
func (s *Suite) runAll(specs []runSpec) ([]*sim.Result, error) {
	pts := make([]point, len(specs))
	for i, sp := range specs {
		p, err := s.resolve(sp)
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	s.beginBatch()
	defer s.endBatch()
	owner := make(map[uint64]int, len(pts))
	res := make([]*sim.Result, len(pts))
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	for i, p := range pts {
		if _, dup := owner[p.id]; dup {
			continue
		}
		owner[p.id] = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = s.runPoint(p)
		}()
	}
	wg.Wait()
	for i, p := range pts {
		o := owner[p.id]
		if errs[o] != nil {
			return nil, errs[o]
		}
		res[i] = res[o]
	}
	return res, nil
}

// progress buffers one completed point's line until its batch closes.
func (s *Suite) progress(label, line string) {
	if s.opts.Progress == nil {
		return
	}
	s.progressMu.Lock()
	s.pending[label] = line
	s.progressMu.Unlock()
}

func (s *Suite) beginBatch() {
	s.progressMu.Lock()
	s.batchDepth++
	s.progressMu.Unlock()
}

// endBatch flushes the buffered Progress lines sorted by label, making
// emission order a pure function of the batch's run set — never of worker
// count or completion order.
func (s *Suite) endBatch() {
	s.progressMu.Lock()
	s.batchDepth--
	if s.batchDepth > 0 || len(s.pending) == 0 {
		s.progressMu.Unlock()
		return
	}
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys))
	for _, k := range keys {
		lines = append(lines, s.pending[k])
	}
	s.pending = make(map[string]string)
	s.progressMu.Unlock()
	for _, l := range lines {
		s.opts.Progress(l)
	}
}
