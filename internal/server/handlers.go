// HTTP handlers: thin request/response plumbing over the registry in
// server.go. Handlers never touch the simulator — they parse, look up,
// and render.
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"repro/internal/experiments"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// maxRequestBody bounds a submission body; requests are small JSON.
const maxRequestBody = 1 << 20

// apiError is the uniform error payload.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// handleSubmit accepts a request, normalizes it, and resolves it to a job:
// 200 with the existing job's status when the fingerprint is already
// known (idempotent resubmission / concurrent duplicate), 202 with the
// fresh job's status otherwise.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	norm, err := NormalizeRequest(req, s.Defaults())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, existed, err := s.submit(norm)
	if errors.Is(err, errDraining) {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if existed {
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

var errUnknownJob = errors.New("server: unknown job")
var errNotDone = errors.New("server: job is not done")
var errNoTrace = errors.New("server: job has no trace (submit a run request with trace:true)")

// handleResult serves the canonical result body of a done job; 404 before
// completion, 409 for failed or cancelled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	j.mu.Lock()
	state, body, jerr := j.state, j.body, j.err
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case StateFailed, StateCancelled:
		writeError(w, http.StatusConflict, jerr)
	default:
		writeError(w, http.StatusNotFound, errNotDone)
	}
}

// handleTrace serves the Chrome trace artifact of a traced run request.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	j.mu.Lock()
	state, traceBody := j.state, j.traceBody
	j.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusNotFound, errNotDone)
		return
	}
	if len(traceBody) == 0 {
		writeError(w, http.StatusNotFound, errNoTrace)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+j.id+`.trace.json"`)
	w.Write(traceBody)
}

// handleEvents streams a job's progress lines (one per line, flushed as
// they happen) and returns once the job reaches a terminal state. Event
// order follows completion order — for reproducible bytes, download
// /result instead.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		j.mu.Lock()
		events := j.events[sent:]
		sent = len(j.events)
		terminal := j.terminalLocked()
		wake := j.wake
		j.mu.Unlock()
		for _, e := range events {
			if _, err := w.Write([]byte(e + "\n")); err != nil {
				return
			}
		}
		if len(events) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// catalogWorkload is one runnable workload in the discovery payload.
type catalogWorkload struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
	// FrontEnd is how the machine fetches this workload: "exec" for
	// execution-driven synthetic kernels, "replay" for recorded traces.
	FrontEnd string `json:"front_end"`
}

// catalog is the discovery payload: everything a request may name.
type catalog struct {
	Version    int               `json:"version"`
	Workloads  []catalogWorkload `json:"workloads"`
	Predictors []string          `json:"predictors"`
	BRConfigs  []string          `json:"br_configs"`
	Figures    []string          `json:"figures"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	infos := workloads.Infos()
	wls := make([]catalogWorkload, len(infos))
	for i, in := range infos {
		fe := "exec"
		if in.Suite == workloads.TraceSuite {
			fe = "replay"
		}
		wls[i] = catalogWorkload{Name: in.Name, Suite: in.Suite, FrontEnd: fe}
	}
	sort.Slice(wls, func(i, j int) bool { return wls[i].Name < wls[j].Name })
	writeJSON(w, http.StatusOK, catalog{
		Version:    RequestVersion,
		Workloads:  wls,
		Predictors: sim.PredictorNames(),
		BRConfigs:  runahead.ConfigNames(),
		Figures:    experiments.FigureNames(),
	})
}
