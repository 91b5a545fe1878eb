// Package server is brserve's HTTP/JSON layer: submit a run or figure
// request, get a content-addressed job ID, poll or stream progress, and
// download the result (and, for traced runs, a Perfetto-loadable Chrome
// trace). The package separates the three concerns the service is made of:
// run description (request.go — a versioned, validated schema), execution
// (job.go — one suite per job on a bounded job semaphore), and storage
// (the experiments package's persistent cache directory; the server adds
// no storage of its own).
//
// Dedupe and caching semantics. The job ID is a fingerprint of the
// normalized request, so identical submissions — concurrent or later —
// resolve to the same job; the registry is the server-boundary
// singleflight. Below it, each job's suite dedupes identical simulation
// points in-process and serves previously-completed points from the cache
// directory, so a warm request executes zero simulations and a restarted
// server picks up where the last one stopped (same -cache-dir).
//
// Concurrency note: this package and internal/experiments are the module's
// only concurrent layers; brlint's goroutine-safety rule keeps everything
// reachable from job execution (the simulator proper) single-threaded.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/workloads"
)

// Config sizes the service.
type Config struct {
	// CacheDir enables the persistent result cache shared by every job
	// (empty disables caching — cold runs only).
	CacheDir string
	// Jobs bounds worker-pool concurrency inside each job's suite;
	// <= 0 selects GOMAXPROCS (experiments.Options.Jobs).
	Jobs int
	// MaxJobs bounds how many jobs execute concurrently; <= 0 means 1.
	// Submissions beyond it queue in FIFO-by-goroutine order.
	MaxJobs int
	// Quick selects the reduced QuickOptions budgets and the small
	// workload scale as request defaults (tests and demos).
	Quick bool
	// TraceDir, when non-empty, registers every *.btr file in it as a
	// trace-driven workload at startup, named "trace:<basename>"; /v1/catalog
	// lists them and run requests may name them.
	TraceDir string
}

// Validate checks the configuration. Every field's zero value is usable,
// so it accepts every configuration; New calls it as every constructor
// calls its Config's Validate.
func (c Config) Validate() error { return nil }

// Server is the HTTP service. Create one with New and serve its Handler.
type Server struct {
	cfg Config
	// base is the option set requests start from: QuickOptions under
	// Config.Quick, else DefaultOptions. Its budgets are the request
	// defaults and its Scale every job's workload scale.
	base experiments.Options
	mux  *http.ServeMux
	sem  chan struct{} // one slot per concurrently-executing job

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool
	wg       sync.WaitGroup
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TraceDir != "" {
		if err := registerTraces(cfg.TraceDir); err != nil {
			return nil, err
		}
	}
	maxJobs := cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 1
	}
	base := experiments.DefaultOptions()
	if cfg.Quick {
		base = experiments.QuickOptions()
	}
	s := &Server{
		cfg:  cfg,
		base: base,
		sem:  make(chan struct{}, maxJobs),
		jobs: make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Defaults returns the budget defaults requests are normalized against.
func (s *Server) Defaults() Defaults {
	return Defaults{Warmup: s.base.Warmup, Instrs: s.base.Instrs, SweepInstrs: s.base.SweepInstrs}
}

// Drain stops the service gracefully: new submissions are refused with
// 503, queued jobs are cancelled, and running jobs are waited for until
// they finish or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	queued := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		queued = append(queued, j)
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.mu.Lock()
		stillQueued := j.state == StateQueued
		j.mu.Unlock()
		if stillQueued {
			j.cancel()
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// suiteOptions maps a normalized request plus the server configuration
// onto one job's experiments.Options.
func (s *Server) suiteOptions(j *job) experiments.Options {
	o := experiments.Options{
		Scale:     s.base.Scale,
		Warmup:    *j.req.Warmup,
		Instrs:    *j.req.Instrs,
		Workloads: j.req.Workloads,
		Jobs:      s.cfg.Jobs,
		CacheDir:  s.cfg.CacheDir,
		Interrupt: j.interrupt,
		Notify:    j.notify,
	}
	if j.req.SweepInstrs != nil {
		o.SweepInstrs = *j.req.SweepInstrs
	}
	if len(j.req.SweepWorkloads) > 0 {
		o.SweepWorkloads = j.req.SweepWorkloads
	} else if len(j.req.Workloads) > 0 {
		o.SweepWorkloads = j.req.Workloads
	}
	return o
}

// submit resolves a normalized request to its job, creating and launching
// one if the fingerprint is new. The second return reports whether the job
// already existed (for the 200-vs-202 distinction).
func (s *Server) submit(req Request) (*job, bool, error) {
	id := fingerprint(req)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, true, nil
	}
	if s.draining {
		return nil, false, errDraining
	}
	j := newJob(id, req)
	s.jobs[id] = j
	s.wg.Add(1)
	go s.runJob(j)
	return j, false, nil
}

var errDraining = errors.New("server: draining, not accepting jobs")

// registerTraces names every *.btr file in dir as a trace workload. A dir
// that cannot be read (missing, or not a directory) is an error, so a
// mistyped -trace-dir stops the server instead of serving no traces. It
// runs once at server construction, before the handler serves anything, so
// the registration-before-concurrency contract of workloads.RegisterTrace
// holds.
func registerTraces(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("server: trace dir: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".btr")
		if !ok || e.IsDir() {
			continue
		}
		if err := workloads.RegisterTrace(name, filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("server: trace dir: %w", err)
		}
	}
	return nil
}

// runJob executes one job on the MaxJobs semaphore.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	if !j.start() {
		return // cancelled while queued
	}
	suite := experiments.NewSuite(s.suiteOptions(j))
	body, traceBody, err := s.execute(j, suite)
	j.finish(body, traceBody, suite.RunsExecuted(), err)
}

// lookup finds a job by path ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}
