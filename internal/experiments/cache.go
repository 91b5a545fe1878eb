// The persistent run cache. With Options.CacheDir set, every completed
// simulation point is serialized to disk under its point ID, in one
// directory per simulator epoch, and later suite invocations load it back
// instead of simulating — a warm suite executes zero simulations and
// renders byte-identical tables, and a suite killed mid-run restarts by
// recomputing only the points it had not finished (DESIGN.md §10).
package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/brstate"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// resultStateVersion is the sim.Result payload version inside a cache entry.
// Bump it when the Result codec below changes; every point ID then changes
// and old entries are simply recomputed.
const resultStateVersion = 1

// pointID identifies one simulation point: an FNV-64a hash of everything
// the suite varies that the point's result depends on — the canonical
// workload, the workload scale, the warmup and measured budgets, the
// predictor, the Branch Runahead configuration, WarmupBarrier mode (whose
// boundary drain and deferred BR attach are observable in the result) and
// the envelope and Result codec versions. It keys the runner's
// singleflight and names the point's cache entry, so two figures, or a
// figure and a named run, that simulate the same configuration share one
// run. The parts are streamed into the hash because every warm brserve
// request computes one. The BR and mode parts are written only when set.
func (s *Suite) pointID(wl string, cfg sim.Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|scale%+v|warm%d|instrs%d|pred%s|fmt%d|res%d", wl, s.opts.Scale,
		cfg.Warmup, cfg.MaxInstrs, cfg.Predictor, brstate.FormatVersion, resultStateVersion)
	if cfg.BR != nil {
		fmt.Fprintf(h, "|br%+v", *cfg.BR)
	}
	if cfg.WarmupBarrier {
		io.WriteString(h, "|warmbar1")
	}
	return h.Sum64()
}

// cachePath is the completed-result file of a point, in the directory of
// the simulator's epoch.
func (s *Suite) cachePath(id uint64) string {
	return filepath.Join(s.opts.CacheDir, fmt.Sprintf("e%d", sim.Epoch), fmt.Sprintf("run-%016x.brres", id))
}

// cacheLoad returns the cached result of point id, or ok=false on any miss
// — including unreadable, truncated, or version-skewed entries, which are
// treated as absent and recomputed (the store below then overwrites them).
func (s *Suite) cacheLoad(id uint64) (*sim.Result, bool) {
	if s.opts.CacheDir == "" {
		return nil, false
	}
	blob, err := os.ReadFile(s.cachePath(id))
	if err != nil {
		return nil, false
	}
	return decodeCacheEntry(id, blob)
}

// decodeCacheEntry decodes one on-disk cache blob, verifying it stores
// point id. Any malformed, truncated, or ID-mismatched blob, or one with
// bytes after its last section, is a miss (ok=false), never a panic —
// FuzzLoadResult drives this path with mutated entries.
func decodeCacheEntry(id uint64, blob []byte) (*sim.Result, bool) {
	r, err := brstate.NewReader(blob)
	if err != nil {
		return nil, false
	}
	idOK := false
	r.Section("id", resultStateVersion, func(r *brstate.Reader) {
		idOK = r.U64() == id
	})
	if r.Err() != nil || !idOK {
		return nil, false
	}
	var res *sim.Result
	r.Section("result", resultStateVersion, func(r *brstate.Reader) {
		res = loadResult(r)
	})
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, false
	}
	return res, true
}

// encodeCacheEntry renders the on-disk form of point id's result.
func encodeCacheEntry(id uint64, res *sim.Result) []byte {
	w := brstate.NewWriter()
	w.Section("id", resultStateVersion, func(w *brstate.Writer) {
		w.U64(id)
	})
	w.Section("result", resultStateVersion, func(w *brstate.Writer) {
		saveResult(w, res)
	})
	return w.Bytes()
}

// cacheStore writes point id's result atomically (temp file plus rename),
// so a concurrent or interrupted writer can never leave a partial entry
// behind a valid filename.
func (s *Suite) cacheStore(id uint64, res *sim.Result) error {
	if s.opts.CacheDir == "" {
		return nil
	}
	return atomicWrite(s.cachePath(id), encodeCacheEntry(id, res))
}

// execute runs one simulation point from reset. Exactly one noteExecuted
// per call: only a cache hit (which never reaches execute) counts as zero
// work.
func (s *Suite) execute(w *workloads.Workload, cfg sim.Config) (*sim.Result, error) {
	s.runner.noteExecuted()
	return sim.Run(w, cfg)
}

// executeShared runs one point by forking the workload's shared warm
// machine: the warmup simulates at most once per (workload, warmup
// partition of the config) across the whole suite — runner.warmup's
// singleflight — and each point then copies the warm machine's state and
// simulates only its measure phase. Exactly one noteExecuted per point, as
// in execute; the shared warmup is bookkeeping-free.
func (s *Suite) executeShared(w *workloads.Workload, cfg sim.Config) (*sim.Result, error) {
	warmKey := w.Name + "|" + sim.WarmupKey(cfg)
	warm, err := s.runner.warmup(warmKey, func() (*sim.WarmMachine, error) {
		return sim.WarmupSnapshot(w, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("shared warmup: %w", err)
	}
	s.runner.noteExecuted()
	return sim.RunFromWarmup(w, cfg, warm)
}

// atomicWrite writes b to path via a temp file in the same directory and a
// rename, creating the directory on first use.
func atomicWrite(path string, b []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// saveResult serializes a completed sim.Result. Maps are emitted in sorted
// key order so identical results always encode to identical bytes.
func saveResult(w *brstate.Writer, res *sim.Result) {
	w.String(res.Workload)
	w.String(res.Config)
	w.U64(res.Cycles)
	w.U64(res.Instrs)
	w.U64(res.Branches)
	w.U64(res.Mispred)
	w.F64(res.IPC)
	w.F64(res.MPKI)
	w.U64(res.CoreUops)
	w.U64(res.CoreLoads)
	w.U64(res.DCEUops)
	w.U64(res.DCELoads)
	w.U64(res.Syncs)
	w.U64(res.Chains)
	w.F64(res.AvgChainLen)
	w.F64(res.AGFraction)
	w.F64(res.MergeAcc)
	w.F64(res.MergeAccLayout)
	w.Bool(res.Breakdown != nil)
	stats.SaveCounterMap(w, res.Breakdown)
	w.Len(len(res.ChainDumps))
	for _, d := range res.ChainDumps {
		w.String(d)
	}
	pcs := make([]uint64, 0, len(res.PerBranch))
	// Key gathering is order-insensitive; the sort below restores determinism.
	for pc := range res.PerBranch {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.Len(len(pcs))
	for _, pc := range pcs {
		b := res.PerBranch[pc]
		w.U64(b.PC)
		w.U64(b.Execs)
		w.U64(b.Mispred)
	}
	a := res.Activity
	w.U64(a.Cycles)
	w.U64(a.CoreUops)
	w.U64(a.CoreLoads)
	w.U64(a.L2Accesses)
	w.U64(a.DRAMAccesses)
	w.U64(a.Flushes)
	w.U64(a.DCEUops)
	w.U64(a.DCELoads)
	w.U64(a.Syncs)
	w.Bool(a.HasDCE)
}

// loadResult decodes a Result written by saveResult, preserving the nil-ness
// of its maps and slices so a round trip is reflect.DeepEqual to the
// original. Reader errors are sticky; the caller checks r.Err().
func loadResult(r *brstate.Reader) *sim.Result {
	res := &sim.Result{
		Workload:  r.String(),
		Config:    r.String(),
		Cycles:    r.U64(),
		Instrs:    r.U64(),
		Branches:  r.U64(),
		Mispred:   r.U64(),
		IPC:       r.F64(),
		MPKI:      r.F64(),
		CoreUops:  r.U64(),
		CoreLoads: r.U64(),
		DCEUops:   r.U64(),
		DCELoads:  r.U64(),
		Syncs:     r.U64(),
		Chains:    r.U64(),
	}
	res.AvgChainLen = r.F64()
	res.AGFraction = r.F64()
	res.MergeAcc = r.F64()
	res.MergeAccLayout = r.F64()
	hasBreakdown := r.Bool()
	res.Breakdown = stats.LoadCounterMap(r)
	if hasBreakdown && res.Breakdown == nil {
		res.Breakdown = make(map[string]uint64)
	}
	nDumps := r.LenAny()
	for i := 0; i < nDumps && r.Err() == nil; i++ {
		res.ChainDumps = append(res.ChainDumps, r.String())
	}
	nPCs := r.LenAny()
	res.PerBranch = make(map[uint64]sim.BranchResult, nPCs)
	for i := 0; i < nPCs && r.Err() == nil; i++ {
		b := sim.BranchResult{PC: r.U64(), Execs: r.U64(), Mispred: r.U64()}
		if r.Err() == nil {
			res.PerBranch[b.PC] = b
		}
	}
	res.Activity = energy.RunActivity{
		Cycles:       r.U64(),
		CoreUops:     r.U64(),
		CoreLoads:    r.U64(),
		L2Accesses:   r.U64(),
		DRAMAccesses: r.U64(),
		Flushes:      r.U64(),
		DCEUops:      r.U64(),
		DCELoads:     r.U64(),
		Syncs:        r.U64(),
		HasDCE:       r.Bool(),
	}
	return res
}
