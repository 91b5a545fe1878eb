package sim

import (
	"fmt"
	"sort"

	"repro/internal/brstate"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/runahead"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Whole-simulation snapshots. A snapshot is a brstate envelope of named
// sections, one per simulated component, taken at a quiesce barrier (see
// Config.SnapshotStride). Section payload versions are owned by the
// components; metaVersion covers the composition itself.
const metaVersion = 1

// saveState serializes the quiesced machine plus the warmup-boundary counter
// snapshot (needed to diff the measured phase at the end of a resumed run).
func (m *machine) saveState(boundary snap) ([]byte, error) {
	saver, ok := m.bp.(brstate.Saver)
	if !ok {
		return nil, fmt.Errorf("sim: predictor %s does not support snapshots", m.bp.Name())
	}
	w := brstate.NewWriter()
	w.Section("meta", metaVersion, func(w *brstate.Writer) {
		w.String(m.w.Name)
		w.String(configName(m.cfg))
		w.U64(m.cfg.Warmup)
		w.U64(m.cfg.MaxInstrs)
		w.U64(m.cfg.SnapshotStride)
		w.Bool(m.sys != nil)
	})
	m.saveComponentSections(w, saver)
	if m.sys != nil {
		w.Section("br", runahead.SystemStateVersion, m.sys.SaveState)
	}
	w.Section("boundary", metaVersion, func(w *brstate.Writer) {
		saveSnap(w, boundary)
	})
	return w.Bytes(), nil
}

// saveComponentSections writes the per-component sections common to full
// barrier snapshots and warmup-only blobs: everything except the runahead
// system and the boundary counter snapshot.
func (m *machine) saveComponentSections(w *brstate.Writer, saver brstate.Saver) {
	w.Section("mem", emu.MemoryStateVersion, m.c.Memory().SaveState)
	w.Section("core", core.StateVersion, m.c.SaveState)
	w.Section("bpred", predictors[m.cfg.Predictor].version, saver.SaveState)
	w.Section("l1i", cache.CacheStateVersion, m.hier.ICache.SaveState)
	w.Section("l1d", cache.CacheStateVersion, m.hier.DCache.SaveState)
	w.Section("l2", cache.CacheStateVersion, m.hier.L2.SaveState)
	if pf := m.hier.DCache.Prefetcher(); pf != nil {
		w.Section("pf", cache.PrefetcherStateVersion, pf.SaveState)
	}
	if m.hier.DTLB != nil {
		w.Section("dtlb", cache.TLBStateVersion, m.hier.DTLB.SaveState)
	}
	if d, ok := m.hier.Mem.(*dram.DRAM); ok {
		w.Section("dram", dram.StateVersion, d.SaveState)
	}
}

// loadState restores a snapshot produced by saveState into a freshly-built
// machine with the same workload and configuration, returning the restored
// warmup-boundary counter snapshot.
func (m *machine) loadState(blob []byte) (snap, error) {
	var boundary snap
	loader, ok := m.bp.(brstate.Loader)
	if !ok {
		return boundary, fmt.Errorf("sim: predictor %s does not support snapshots", m.bp.Name())
	}
	r, err := brstate.NewReader(blob)
	if err != nil {
		return boundary, fmt.Errorf("sim: snapshot: %w", err)
	}
	var metaErr error
	r.Section("meta", metaVersion, func(r *brstate.Reader) {
		wl := r.String()
		cfgName := r.String()
		warmup := r.U64()
		maxInstrs := r.U64()
		stride := r.U64()
		hasBR := r.Bool()
		if r.Err() != nil {
			return
		}
		switch {
		case wl != m.w.Name:
			metaErr = fmt.Errorf("snapshot is for workload %q, not %q", wl, m.w.Name)
		case cfgName != configName(m.cfg):
			metaErr = fmt.Errorf("snapshot is for config %q, not %q", cfgName, configName(m.cfg))
		case warmup != m.cfg.Warmup || maxInstrs != m.cfg.MaxInstrs || stride != m.cfg.SnapshotStride:
			metaErr = fmt.Errorf("snapshot budget (%d+%d/%d) does not match config (%d+%d/%d)",
				warmup, maxInstrs, stride, m.cfg.Warmup, m.cfg.MaxInstrs, m.cfg.SnapshotStride)
		case hasBR != (m.sys != nil):
			metaErr = fmt.Errorf("snapshot runahead presence (%v) does not match config", hasBR)
		}
	})
	if err = r.Err(); err == nil {
		err = metaErr
	}
	if err != nil {
		return boundary, fmt.Errorf("sim: snapshot: %w", err)
	}

	l := &sectionLoader{r: r}
	m.loadComponentSections(l, loader)
	if m.sys != nil {
		l.load("br", runahead.SystemStateVersion, func(r *brstate.Reader) error {
			return m.sys.LoadState(r, m.w.Prog)
		})
	}
	l.load("boundary", metaVersion, func(r *brstate.Reader) error {
		boundary = loadSnap(r)
		return r.Err()
	})
	return boundary, l.err
}

// sectionLoader threads a sticky error through sequential section loads.
type sectionLoader struct {
	r   *brstate.Reader
	err error
}

func (l *sectionLoader) load(name string, version uint32, ld func(*brstate.Reader) error) {
	if l.err != nil {
		return
	}
	var inner error
	l.r.Section(name, version, func(r *brstate.Reader) { inner = ld(r) })
	if secErr := l.r.Err(); secErr != nil {
		l.err = secErr
	} else {
		l.err = inner
	}
	if l.err != nil {
		l.err = fmt.Errorf("sim: snapshot section %q: %w", name, l.err)
	}
}

// loadComponentSections restores the sections saveComponentSections wrote.
func (m *machine) loadComponentSections(l *sectionLoader, loader brstate.Loader) {
	l.load("mem", emu.MemoryStateVersion, m.c.Memory().LoadState)
	l.load("core", core.StateVersion, m.c.LoadState)
	l.load("bpred", predictors[m.cfg.Predictor].version, loader.LoadState)
	l.load("l1i", cache.CacheStateVersion, m.hier.ICache.LoadState)
	l.load("l1d", cache.CacheStateVersion, m.hier.DCache.LoadState)
	l.load("l2", cache.CacheStateVersion, m.hier.L2.LoadState)
	if pf := m.hier.DCache.Prefetcher(); pf != nil {
		l.load("pf", cache.PrefetcherStateVersion, pf.LoadState)
	}
	if m.hier.DTLB != nil {
		l.load("dtlb", cache.TLBStateVersion, m.hier.DTLB.LoadState)
	}
	if d, ok := m.hier.Mem.(*dram.DRAM); ok {
		l.load("dram", dram.StateVersion, d.LoadState)
	}
}

func saveSnap(w *brstate.Writer, s snap) {
	w.U64(s.cycles)
	w.U64(s.retired)
	w.U64(s.branches)
	w.U64(s.mispred)
	w.U64(s.issued)
	w.U64(s.issuedLoads)
	w.U64(s.flushes)
	w.U64(s.l2)
	w.U64(s.dramR)
	w.U64(s.dramW)
	w.U64(s.dceUops)
	w.U64(s.dceLoads)
	w.U64(s.syncs)
	stats.SaveCounterMap(w, s.breakdown)
	pcs := make([]uint64, 0, len(s.perBranch))
	// Key gathering is order-insensitive; the sort below restores determinism.
	for pc := range s.perBranch { //brlint:allow determinism
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.Len(len(pcs))
	for _, pc := range pcs {
		b := s.perBranch[pc]
		w.U64(b.PC)
		w.U64(b.Execs)
		w.U64(b.Mispred)
	}
}

func loadSnap(r *brstate.Reader) snap {
	s := snap{
		cycles:      r.U64(),
		retired:     r.U64(),
		branches:    r.U64(),
		mispred:     r.U64(),
		issued:      r.U64(),
		issuedLoads: r.U64(),
		flushes:     r.U64(),
		l2:          r.U64(),
		dramR:       r.U64(),
		dramW:       r.U64(),
		dceUops:     r.U64(),
		dceLoads:    r.U64(),
		syncs:       r.U64(),
	}
	s.breakdown = stats.LoadCounterMap(r)
	n := r.LenBounded(24) // 3 u64 fields per entry
	s.perBranch = make(map[uint64]BranchResult, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		b := BranchResult{PC: r.U64(), Execs: r.U64(), Mispred: r.U64()}
		if r.Err() == nil {
			s.perBranch[b.PC] = b
		}
	}
	return s
}

// Resume restores a barrier snapshot (produced by a Run with the same
// workload and configuration) and drives the simulation to completion,
// returning a Result identical to the one the interrupted run would have
// produced.
func Resume(w *workloads.Workload, cfg Config, blob []byte) (*Result, error) {
	m, err := newMachine(w, cfg)
	if err != nil {
		return nil, err
	}
	// A WarmupBarrier-mode snapshot was taken after the boundary attach, so
	// its blob carries a runahead section; attach before restoring it.
	m.attachBR()
	boundary, err := m.loadState(blob)
	if err != nil {
		return nil, fmt.Errorf("sim %s: resume: %w", w.Name, err)
	}
	return m.measure(boundary)
}
