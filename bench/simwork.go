package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/btrace"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// simMode selects one of the three simulation workloads.
type simMode int

const (
	execBase   simMode = iota // execution-driven, TAGE-SC-L alone
	execBR                    // execution-driven, Mini Branch Runahead attached at reset
	replayBase                // .btr trace replay, TAGE-SC-L alone
)

// mix is the kernel mix every simulation workload runs, one kernel each
// per round: a branchy kernel (leela_17), a pointer-chasing one (mcf_17), a
// memory-bound one (memKernel) and a graph kernel (tc).
var mix = []string{"leela_17", "mcf_17", memKernel, "tc"}

// memKernel is the mix's memory-bound kernel. It chases the cycle through
// node 0 of a random permutation of 64Ki nodes, and the seed decides how
// long that cycle is.
const memKernel = "omnetpp_06"

// seedStride separates the workload seeds mixSeed tries for one run seed,
// so that run seeds below it never share inputs.
const seedStride = 1 << 20

// mixSeed returns the workload seed the mix is generated from: the first of
// seed, seed+seedStride, seed+2*seedStride, ... for which memKernel never
// loads an address twice within its instruction budget, so its chase does
// not close the cycle. About half the seeds give a shorter cycle, and one in
// five a cycle that fits in the L1 data cache: that kernel is no longer
// memory-bound, simulates a third fewer cycles and allocates 12-15% less per
// round, so runs with different seeds would not measure the same work.
func mixSeed(seed int64, b budget) (int64, error) {
	scale := workloads.DefaultScale()
	for k := int64(0); k < 64; k++ {
		scale.Seed = seed + k*seedStride
		w, err := workloads.ByName(memKernel, scale)
		if err != nil {
			return 0, err
		}
		ok, err := loadsDistinct(w.Prog, b.warmup+b.measured)
		if err != nil {
			return 0, err
		}
		if ok {
			return scale.Seed, nil
		}
	}
	return 0, fmt.Errorf("no workload seed from %d gives %s a cycle longer than its budget", seed, memKernel)
}

// loadsDistinct reports whether p, executed functionally for steps
// micro-ops, loads every address at most once.
func loadsDistinct(p *program.Program, steps uint64) (bool, error) {
	r := emu.NewRunner(p)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < steps; i++ {
		res, err := r.StepOne()
		if err != nil {
			return false, err
		}
		if !res.IsLoad {
			continue
		}
		if seen[res.MemAddr] {
			return false, nil
		}
		seen[res.MemAddr] = true
	}
	return true, nil
}

// buildMix generates the mix at the default scale from seed. For replay it
// also records each kernel's trace through a .btr file in dir and returns
// trace-backed workloads. It reports the build and record times apart.
func buildMix(seed int64, mode simMode, dir string, b budget) (ws []*workloads.Workload, build, record time.Duration, err error) {
	scale := workloads.DefaultScale()
	scale.Seed = seed
	for _, name := range mix {
		t := time.Now()
		w, err := workloads.ByName(name, scale)
		if err != nil {
			return nil, 0, 0, err
		}
		build += time.Since(t)
		if mode == replayBase {
			t = time.Now()
			tr, err := btrace.Record(w.Prog, w.Name, btrace.StepsFor(b.warmup, b.measured))
			if err != nil {
				return nil, 0, 0, err
			}
			path := filepath.Join(dir, name+".btr")
			if err := btrace.WriteFile(path, tr); err != nil {
				return nil, 0, 0, err
			}
			if tr, err = btrace.ReadFile(path); err != nil {
				return nil, 0, 0, err
			}
			rw := *w
			rw.Trace = tr
			w = &rw
			record += time.Since(t)
		}
		ws = append(ws, w)
	}
	return ws, build, record, nil
}

// simConfig is the configuration of one kernel run: the Table 1 core with
// the 64KB TAGE-SC-L, caches empty at reset, warmup then measurement.
func simConfig(mode simMode, b budget) sim.Config {
	cfg := sim.Config{
		Core:      core.DefaultConfig(),
		Predictor: sim.PredTage64,
		FrontEnd:  sim.FEExec,
		Warmup:    b.warmup,
		MaxInstrs: b.measured,
	}
	switch mode {
	case execBR:
		br := runahead.Mini()
		cfg.BR = &br
	case replayBase:
		cfg.FrontEnd = sim.FETrace
	}
	return cfg
}

// sameCounters reports whether two runs measured identical cycles,
// instructions, branches, mispredictions and per-branch outcomes.
func sameCounters(a, b *sim.Result) error {
	if a.Cycles != b.Cycles || a.Instrs != b.Instrs || a.Branches != b.Branches || a.Mispred != b.Mispred {
		return fmt.Errorf("cycles/instrs/branches/mispredicts %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Cycles, a.Instrs, a.Branches, a.Mispred, b.Cycles, b.Instrs, b.Branches, b.Mispred)
	}
	if !reflect.DeepEqual(a.PerBranch, b.PerBranch) {
		return errors.New("per-branch outcomes differ")
	}
	return nil
}

// runSim is the untraced simulation workload. One operation is a round: one
// sim.Run of every kernel in the mix. Rounds repeat until the measured time
// is spent; every round must reproduce the first round's counters, and
// replayed kernels must reproduce their execution-driven counters.
//
// Set-up is timed again after every round, and the next round runs on the
// mix that set-up built. The host's speed drifts over tens of seconds, so
// set-up timed only before the first round would sample one moment of it,
// while the rounds average over the whole run.
func runSim(o options, r *run, mode simMode) error {
	seed, err := mixSeed(o.seed, o.b)
	if err != nil {
		return err
	}
	var ws []*workloads.Workload
	build := func() (err error) {
		ws, _, _, err = buildMix(seed, mode, o.dir, o.b)
		return err
	}
	setup, err := timeSetup(o.setupReps, build)
	if err != nil {
		return err
	}
	cfg := simConfig(mode, o.b)
	first := make([]*sim.Result, len(ws))
	var rounds []float64
	var busy time.Duration
	var alloc uint64
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < o.seconds {
		alloc0 := totalAlloc()
		t := time.Now()
		for i, w := range ws {
			res, err := sim.Run(w, cfg)
			if !r.op(err) {
				continue
			}
			// Retirement stops within one retire group past the budget.
			r.check(res.Instrs >= o.b.measured && res.Instrs < o.b.measured+uint64(cfg.Core.RetireWidth),
				"%s measured %d instructions, want %d", w.Name, res.Instrs, o.b.measured)
			if first[i] == nil {
				first[i] = res
			} else {
				err := sameCounters(first[i], res)
				r.check(err == nil, "%s is not deterministic across rounds: %v", w.Name, err)
			}
		}
		d := time.Since(t)
		alloc += totalAlloc() - alloc0
		busy += d
		rounds = append(rounds, d.Seconds())
		more, err := timeSetup(1, build)
		if err != nil {
			return err
		}
		setup = append(setup, more...)
	}
	if mode == replayBase {
		checkReplay(r, ws, first, o.b)
	}
	r.endToEnd(len(rounds), busy, rounds, alloc, setup)
	return nil
}

// checkReplay runs each replayed kernel once more execution-driven and
// checks the replay measured exactly the same thing.
func checkReplay(r *run, ws []*workloads.Workload, replayed []*sim.Result, b budget) {
	cfg := simConfig(execBase, b)
	for i, w := range ws {
		ref, err := sim.Run(w, cfg)
		if !r.op(err) || replayed[i] == nil {
			continue
		}
		err = sameCounters(ref, replayed[i])
		r.check(err == nil, "%s replay differs from execution: %v", w.Name, err)
	}
}

// traceSim is the traced simulation workload: one round through sim.Run as
// the reference, then one round through the benchmark's own composition of
// the same machine with timing wrappers at every layer boundary. The
// wrapped machine must reproduce sim.Run's counters exactly.
func traceSim(o options, r *run, mode simMode) error {
	seed, err := mixSeed(o.seed, o.b)
	if err != nil {
		return err
	}
	ws, build, record, err := buildMix(seed, mode, o.dir, o.b)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setup := (build + record).Seconds()
	r.set("workloads.build_setup_frac", "frac", build.Seconds()/setup)
	r.set("btrace.record_setup_frac", "frac", record.Seconds()/setup)

	cfg := simConfig(mode, o.b)
	refs := make([]*sim.Result, len(ws))
	t := time.Now()
	for i, w := range ws {
		refs[i], err = sim.Run(w, cfg)
		r.op(err)
	}
	plain := time.Since(t)

	prof, err := startProfiles(o.dir)
	if err != nil {
		return err
	}
	rt0 := sampleRuntime()
	clk := newLayerClock()
	var tot machineCounters
	t = time.Now()
	for i, w := range ws {
		got, err := runClocked(w, mode, o.b, clk)
		if !r.op(err) || refs[i] == nil {
			continue
		}
		err = sameCounters(refs[i], got.res)
		r.check(err == nil, "%s: traced machine differs from sim.Run: %v", w.Name, err)
		tot.add(got.ctr)
	}
	traced := time.Since(t)
	rt1 := sampleRuntime()
	if err := prof.stop(r); err != nil {
		return err
	}
	r.setRuntimeLayer(rt0, rt1, 1)
	r.set("bench.trace_overhead", "ratio", traced.Seconds()/plain.Seconds())
	clk.report(r, tot)
	reportModel(r, refs)
	return nil
}

// reportModel records the simulated-machine outcome of the round: IPC and
// MPKI over every measured instruction, and the Branch Runahead prediction
// usefulness and engine work.
func reportModel(r *run, refs []*sim.Result) {
	var instrs, cycles, mispred, dceUops uint64
	var useful, preds uint64
	for _, res := range refs {
		if res == nil {
			continue
		}
		instrs += res.Instrs
		cycles += res.Cycles
		mispred += res.Mispred
		dceUops += res.DCEUops
		for _, k := range []string{"inactive", "late", "throttled", "correct", "incorrect"} {
			preds += res.Breakdown[k]
		}
		useful += res.Breakdown["correct"]
	}
	r.set("sim.ipc", "instr/cycle", ratio(instrs, cycles))
	r.set("sim.mpki", "1/kinstr", 1000*ratio(mispred, instrs))
	r.set("runahead.dce_uops_per_kinstr", "1/kinstr", 1000*ratio(dceUops, instrs))
	r.set("runahead.useful_pred_frac", "frac", ratio(useful, preds))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
