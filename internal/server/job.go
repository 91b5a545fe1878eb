// The execution layer of brserve: one job per distinct normalized request,
// identified by its fingerprint. A job owns a private experiments.Suite —
// which brings the persistent cache, the bounded worker pool, and in-suite
// singleflight — and runs on the server's MaxJobs semaphore. Server-level
// dedupe is by construction: the registry creates at most one job per
// fingerprint, so N identical concurrent submissions share one execution.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Job states. A job is terminal in StateDone, StateFailed or StateCancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// errCancelled aborts a job's in-flight suite work via Options.Interrupt.
var errCancelled = errors.New("server: job cancelled")

// job tracks one submitted request through its lifecycle.
type job struct {
	id  string
	req Request

	mu        sync.Mutex
	state     string
	err       error
	body      []byte   // canonical result payload, set in StateDone
	traceBody []byte   // Chrome trace JSON for traced run requests
	events    []string // progress lines, in completion order
	executed  int      // suite.RunsExecuted() at completion
	cancelled bool
	wake      chan struct{} // closed and replaced on every mutation; streams wait on it
	done      chan struct{} // closed on entering a terminal state
}

func newJob(id string, req Request) *job {
	return &job{
		id:    id,
		req:   req,
		state: StateQueued,
		wake:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// broadcast wakes every events-stream subscriber; callers hold j.mu.
func (j *job) broadcast() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// cancel requests termination: a queued job never starts, a running one is
// aborted at its next Interrupt poll. Terminal jobs are unaffected.
func (j *job) cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return
	}
	j.cancelled = true
	j.broadcast()
}

// interrupt is the suite's Options.Interrupt hook.
func (j *job) interrupt() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return errCancelled
	}
	return nil
}

// notify is the suite's Options.Notify hook: one line per completed point,
// in completion order (a heartbeat, not reproducible output — the byte-
// stable artifact is the result body).
func (j *job) notify(label string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, "point "+label)
	j.broadcast()
}

func (j *job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}

// start moves queued → running; it reports false when the job was cancelled
// while queued, in which case it is finished as cancelled instead.
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		j.finishLocked(nil, nil, 0, errCancelled)
		return false
	}
	j.state = StateRunning
	j.broadcast()
	return true
}

func (j *job) finish(body, traceBody []byte, executed int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(body, traceBody, executed, err)
}

func (j *job) finishLocked(body, traceBody []byte, executed int, err error) {
	if j.terminalLocked() {
		return
	}
	j.executed = executed
	switch {
	case errors.Is(err, errCancelled):
		j.state = StateCancelled
		j.err = err
		j.events = append(j.events, "cancelled")
	case err != nil:
		j.state = StateFailed
		j.err = err
		j.events = append(j.events, "failed: "+err.Error())
	default:
		j.state = StateDone
		j.body = body
		j.traceBody = traceBody
		j.events = append(j.events, "done")
	}
	j.broadcast()
	close(j.done)
}

// Status is the polled job view served at GET /v1/jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Kind  string `json:"kind"`
	// PointsDone counts completed simulation points (cached or executed).
	PointsDone int `json:"points_done"`
	// RunsExecuted is the number of simulations the job actually ran —
	// zero for a warm-cache job. Populated when the job is terminal.
	RunsExecuted int    `json:"runs_executed"`
	Error        string `json:"error,omitempty"`
	HasTrace     bool   `json:"has_trace,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:           j.id,
		State:        j.state,
		Kind:         j.req.Kind,
		RunsExecuted: j.executed,
		HasTrace:     len(j.traceBody) > 0,
	}
	for _, e := range j.events {
		if len(e) > 6 && e[:6] == "point " {
			st.PointsDone++
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// RunResult is the canonical payload of a completed run request.
type RunResult struct {
	Request Request     `json:"request"`
	Result  *sim.Result `json:"result"`
}

// FigureResult is the canonical payload of a completed figure request.
type FigureResult struct {
	Request Request        `json:"request"`
	Tables  []*stats.Table `json:"tables"`
}

// ResultBody renders a result payload in the server's canonical byte form.
// It is exported so the end-to-end tests can render a direct
// experiments.Suite run through the same encoder and compare bytes with the
// served body — proving the HTTP path changes nothing about the result.
func ResultBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// execute runs the job's request on its private suite and returns the
// canonical result body (plus the Chrome trace for traced run requests).
func (s *Server) execute(j *job, suite *experiments.Suite) (body, traceBody []byte, err error) {
	switch j.req.Kind {
	case "run":
		res, err := suite.RunNamed(j.req.Workload, j.req.Predictor, j.req.BR)
		if err != nil {
			return nil, nil, err
		}
		if j.req.Trace {
			traceBody, err = tracedRun(suite, j.req)
			if err != nil {
				return nil, nil, fmt.Errorf("server: trace run: %w", err)
			}
		}
		body, err = ResultBody(RunResult{Request: j.req, Result: res})
		return body, traceBody, err
	case "figure":
		table, err := experiments.FigureByName(j.req.Figure)
		if err != nil {
			return nil, nil, err
		}
		t, err := table(suite)
		if err != nil {
			return nil, nil, err
		}
		body, err = ResultBody(FigureResult{Request: j.req, Tables: []*stats.Table{t}})
		return body, nil, err
	default:
		// Unreachable: NormalizeRequest rejected other kinds at submit.
		return nil, nil, fmt.Errorf("server: unknown kind %q", j.req.Kind)
	}
}

// tracedRun re-simulates the request's point once with the event tracer
// attached, into an in-memory Chrome trace, through the same suite and so
// the same configuration as the cached run. Traced runs never touch the
// cache: tracing is observably identical but the artifact is per-request.
func tracedRun(suite *experiments.Suite, req Request) ([]byte, error) {
	var buf bytes.Buffer
	tr := trace.New(trace.NewChrome(&buf))
	_, runErr := suite.TraceNamed(req.Workload, req.Predictor, req.BR, tr)
	if cerr := tr.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return nil, runErr
	}
	return buf.Bytes(), nil
}
