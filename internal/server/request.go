// The run-description layer of brserve: a versioned JSON request schema
// that maps onto experiments.Options / sim.Config. Requests are normalized
// (defaults materialized) before anything else happens, so a request that
// spells out the defaults and one that omits them are the same job — the
// job ID is a fingerprint of the normalized form, which is what makes
// submission idempotent and concurrent duplicates collapse into one
// execution at the server boundary.
package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"

	"repro/internal/experiments"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// RequestVersion is the schema version this server speaks. Bump it when a
// field changes meaning; old clients then get a validation error instead of
// a silently reinterpreted run.
const RequestVersion = 1

// Request describes one job: a single simulation point ("run") or a whole
// figure/sweep ("figure"). Budget fields are pointers so an explicit zero
// (rejected) is distinguishable from an absent value (defaulted).
type Request struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"` // "run" | "figure"

	// Run requests: one (workload, predictor, BR config) point.
	Workload  string `json:"workload,omitempty"`
	Predictor string `json:"predictor,omitempty"` // default "tage64" (sim.PredTage64)
	BR        string `json:"br,omitempty"`        // "" = predictor alone
	// Trace additionally records a Chrome trace of the point (one extra
	// traced simulation, never cached), downloadable at /trace.
	Trace bool `json:"trace,omitempty"`

	// Figure requests: a figure name from experiments.FigureNames().
	Figure string `json:"figure,omitempty"`
	// Workloads restricts the figure's benchmark set (nil = all).
	Workloads []string `json:"workloads,omitempty"`
	// SweepWorkloads and SweepInstrs configure the figure 13 sweep only.
	SweepWorkloads []string `json:"sweep_workloads,omitempty"`
	SweepInstrs    *uint64  `json:"sweep_instrs,omitempty"`

	// Budgets; absent values take the server's defaults.
	Warmup *uint64 `json:"warmup,omitempty"`
	Instrs *uint64 `json:"instrs,omitempty"`
}

// Defaults supplies the budget values materialized into a request whose
// budget fields are absent.
type Defaults struct {
	Warmup      uint64
	Instrs      uint64
	SweepInstrs uint64
}

// DecodeRequest reads one JSON request, rejecting unknown fields (a typo'd
// field name must not silently become a default).
func DecodeRequest(r io.Reader) (Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("server: request body: %w", err)
	}
	return req, nil
}

// sweepFigure is the one figure whose sweep budget fields are meaningful.
const sweepFigure = "13"

// NormalizeRequest validates req and returns its canonical form with every
// default materialized. Two requests normalizing to equal values are the
// same job. Every rejection mirrors the repo's Validate() convention: a
// specific error naming the offending field, never a silent fix-up.
func NormalizeRequest(req Request, d Defaults) (Request, error) {
	if req.Version != RequestVersion {
		return Request{}, fmt.Errorf("server: request version %d (this server speaks version %d)",
			req.Version, RequestVersion)
	}
	if req.Warmup == nil {
		w := d.Warmup
		req.Warmup = &w
	}
	if req.Instrs == nil {
		n := d.Instrs
		req.Instrs = &n
	}
	if *req.Instrs == 0 {
		return Request{}, fmt.Errorf("server: instrs must be > 0")
	}
	if *req.Warmup > math.MaxUint64-*req.Instrs {
		return Request{}, fmt.Errorf("server: warmup (%d) + instrs (%d) overflows the instruction budget",
			*req.Warmup, *req.Instrs)
	}
	switch req.Kind {
	case "run":
		if req.Figure != "" {
			return Request{}, fmt.Errorf("server: run request: figure field applies only to figure requests")
		}
		if len(req.Workloads) > 0 || len(req.SweepWorkloads) > 0 || req.SweepInstrs != nil {
			return Request{}, fmt.Errorf("server: run request: sweep budgets apply only to the figure %s sweep", sweepFigure)
		}
		if req.Workload == "" {
			return Request{}, fmt.Errorf("server: run request: workload required")
		}
		wl, err := resolveWorkload(req.Workload)
		if err != nil {
			return Request{}, err
		}
		req.Workload = wl
		if req.Predictor == "" {
			req.Predictor = sim.PredTage64.String()
		}
		if _, err := sim.ParsePredictor(req.Predictor); err != nil {
			return Request{}, fmt.Errorf("server: %w", err)
		}
		if req.BR != "" {
			if _, err := runahead.ConfigByName(req.BR); err != nil {
				return Request{}, fmt.Errorf("server: %w", err)
			}
		}
	case "figure":
		if req.Workload != "" || req.Predictor != "" || req.BR != "" || req.Trace {
			return Request{}, fmt.Errorf("server: figure request: workload/predictor/br/trace fields apply only to run requests")
		}
		if _, err := experiments.FigureByName(req.Figure); err != nil {
			return Request{}, fmt.Errorf("server: %w", err)
		}
		for _, wl := range req.Workloads {
			if err := checkWorkload(wl); err != nil {
				return Request{}, err
			}
		}
		if req.Figure == sweepFigure {
			if req.SweepInstrs == nil {
				n := d.SweepInstrs
				req.SweepInstrs = &n
			}
			if *req.SweepInstrs == 0 {
				return Request{}, fmt.Errorf("server: sweep_instrs must be > 0")
			}
			for _, wl := range req.SweepWorkloads {
				if err := checkWorkload(wl); err != nil {
					return Request{}, err
				}
			}
		} else if len(req.SweepWorkloads) > 0 || req.SweepInstrs != nil {
			return Request{}, fmt.Errorf("server: sweep budgets apply only to the figure %s sweep", sweepFigure)
		}
	default:
		return Request{}, fmt.Errorf("server: unknown kind %q (want \"run\" or \"figure\")", req.Kind)
	}
	return req, nil
}

func checkWorkload(name string) error {
	if strings.HasPrefix(name, workloads.TracePrefix) {
		return fmt.Errorf("server: trace workload %q: figures aggregate the paper's suites; trace replays are run requests only", name)
	}
	for _, wl := range workloads.Names() {
		if wl == name {
			return nil
		}
	}
	return fmt.Errorf("server: unknown workload %q", name)
}

// resolveWorkload validates a run request's workload name. Trace names are
// resolved now — a missing or corrupt trace file is the client's error (400),
// not a mid-job failure — and canonicalized to their fingerprinted form, so
// the job ID addresses the trace content: resubmitting after the file changed
// is a new job, not a stale hit. Only traces registered from the server's
// trace directory resolve; any other trace name is rejected before the
// filesystem is touched, so a client cannot make the server read a path.
func resolveWorkload(name string) (string, error) {
	if strings.HasPrefix(name, workloads.TracePrefix) {
		if !workloads.IsRegisteredTrace(name) {
			return "", fmt.Errorf("server: unknown trace workload %q (want one of %v)", name, workloads.TraceNames())
		}
		w, err := workloads.ByName(name, workloads.Scale{})
		if err != nil {
			return "", err
		}
		return w.Name, nil
	}
	if err := checkWorkload(name); err != nil {
		return "", err
	}
	return name, nil
}

// fingerprint content-addresses a normalized request: the job ID. JSON
// marshaling of a struct is deterministic (fixed field order), so equal
// normalized requests always fingerprint identically.
func fingerprint(req Request) string {
	blob, err := json.Marshal(req)
	if err != nil {
		// Request holds only plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("server: fingerprint: %v", err))
	}
	h := fnv.New64a()
	h.Write(blob)
	return fmt.Sprintf("job-%016x", h.Sum64())
}
