// Package branchrunahead is a from-scratch reproduction of "Branch
// Runahead: An Alternative to Branch Prediction for Impossible to Predict
// Branches" (Pruett and Patt, MICRO 2021).
//
// It bundles a complete execution-driven, cycle-level out-of-order core
// simulator (the role Scarab plays in the paper), a TAGE-SC-L branch
// predictor family, a cache/DRAM memory hierarchy, 18 synthetic workload
// kernels reproducing the paper's SPEC/GAP hard-branch idioms, and the
// Branch Runahead system itself: runtime dependence chain extraction, the
// Dependence Chain Engine, merge-point-based affector/guard detection, and
// fetch-overriding prediction queues.
//
// Quick start:
//
//	res, err := branchrunahead.Run("leela_17", branchrunahead.RunConfig{
//		BR:        ptr(branchrunahead.Mini()),
//		MaxInstrs: 500_000,
//	})
//
// The experiment harness regenerates every table and figure of the paper's
// evaluation; see NewExperiments and EXPERIMENTS.md.
package branchrunahead

import (
	"repro/internal/experiments"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BRConfig parameterizes the Branch Runahead system (chain cache, DCE
// window, prediction queues, initiation policy, feature toggles).
type BRConfig = runahead.Config

// InitMode selects the chain initiation policy.
type InitMode = runahead.InitMode

// Initiation policies (paper §4.1).
const (
	NonSpeculative   = runahead.NonSpeculative
	IndependentEarly = runahead.IndependentEarly
	Predictive       = runahead.Predictive
)

// Stock configurations from the paper's Table 2.
var (
	// CoreOnly is the 9KB variant sharing the core's execution resources.
	CoreOnly = runahead.CoreOnly
	// Mini is the 17KB dedicated-engine variant.
	Mini = runahead.Mini
	// Big is the unlimited-storage variant.
	Big = runahead.Big
)

// PredictorKind selects the baseline direction predictor.
type PredictorKind = sim.PredictorKind

// Baseline predictors.
const (
	PredTage64     = sim.PredTage64
	PredTage80     = sim.PredTage80
	PredMTage      = sim.PredMTage
	PredBimodal    = sim.PredBimodal
	PredGshare     = sim.PredGshare
	PredPerceptron = sim.PredPerceptron
	PredTournament = sim.PredTournament
	PredLDBP       = sim.PredLDBP
	PredBullseye   = sim.PredBullseye
)

// Result holds one run's measured metrics.
type Result = sim.Result

// Scale sizes workload data footprints.
type Scale = workloads.Scale

// DefaultScale and SmallScale are the stock workload footprints.
var (
	DefaultScale = workloads.DefaultScale
	SmallScale   = workloads.SmallScale
)

// RunConfig describes one simulation.
type RunConfig struct {
	// Predictor is the baseline predictor (default: 64KB TAGE-SC-L).
	Predictor PredictorKind
	// BR enables Branch Runahead when non-nil.
	BR *BRConfig
	// Warmup instructions are excluded from measurement (default 100k).
	Warmup uint64
	// MaxInstrs is the measured budget (default 1M).
	MaxInstrs uint64
	// Scale overrides the workload footprint (default DefaultScale).
	Scale *Scale
	// Trace, when non-nil, receives structured events from every simulated
	// unit (see package repro/internal/trace). Nil disables tracing with
	// zero overhead.
	Trace *trace.Tracer
}

// Workloads returns the 18 benchmark kernel names in the paper's order.
func Workloads() []string { return workloads.Names() }

// Run simulates one workload under the given configuration.
func Run(workload string, cfg RunConfig) (*Result, error) {
	scale := workloads.DefaultScale()
	if cfg.Scale != nil {
		scale = *cfg.Scale
	}
	w, err := workloads.ByName(workload, scale)
	if err != nil {
		return nil, err
	}
	sc := sim.DefaultConfig()
	sc.Predictor = cfg.Predictor
	sc.BR = cfg.BR
	sc.Trace = cfg.Trace
	if cfg.Warmup > 0 {
		sc.Warmup = cfg.Warmup
	}
	if cfg.MaxInstrs > 0 {
		sc.MaxInstrs = cfg.MaxInstrs
	}
	return sim.Run(w, sc)
}

// ExperimentOptions sizes the experiment harness runs.
type ExperimentOptions = experiments.Options

// Experiments regenerates the paper's tables and figures.
type Experiments = experiments.Suite

// NewExperiments returns a harness with the given options.
func NewExperiments(opts ExperimentOptions) *Experiments {
	return experiments.NewSuite(opts)
}

// DefaultExperimentOptions regenerates every figure in minutes.
var DefaultExperimentOptions = experiments.DefaultOptions

// QuickExperimentOptions is a reduced set for smoke tests.
var QuickExperimentOptions = experiments.QuickOptions

// Table is an aligned text table (one per figure).
type Table = stats.Table

// Static tables.
var (
	// Table1 renders the baseline core configuration.
	Table1 = experiments.Table1
	// Table2 renders the three Branch Runahead configurations.
	Table2 = experiments.Table2
	// AreaTable renders the §5.2 area estimates.
	AreaTable = experiments.AreaTable
)
