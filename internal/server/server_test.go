// End-to-end tests over httptest: every assertion here goes through real
// HTTP round trips against the real handler, suite, simulator, and cache
// directory — nothing is mocked.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runahead"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// testBudgets keeps e2e simulations small; mirrors cacheTestOptions in
// internal/experiments.
const (
	testWarmup = 10_000
	testInstrs = 40_000
)

func u64p(v uint64) *uint64 { return &v }

// runRequest is the canonical single-point request used across the tests.
func runRequest() Request {
	return Request{
		Version:   RequestVersion,
		Kind:      "run",
		Workload:  "mcf_17",
		Predictor: "tage64",
		BR:        "mini",
		Warmup:    u64p(testWarmup),
		Instrs:    u64p(testInstrs),
	}
}

func figureRequest(fig string) Request {
	return Request{
		Version:   RequestVersion,
		Kind:      "figure",
		Figure:    fig,
		Workloads: []string{"mcf_17"},
		Warmup:    u64p(testWarmup),
		Instrs:    u64p(testInstrs),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Quick = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// submit POSTs req and returns the job status, asserting the given HTTP
// code.
func submit(t *testing.T, ts *httptest.Server, req Request, wantCode int) Status {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != wantCode {
		t.Fatalf("submit status = %d, want %d (body %s)", resp.StatusCode, wantCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit body %s: %v", body, err)
	}
	return st
}

// await polls a job until it reaches a terminal state.
func await(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll = %d (body %s)", resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

// awaitRunning polls until the job leaves the queue (MaxJobs=1 tests use
// it to pin which job owns the execution slot before submitting another).
func awaitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll = %d (body %s)", resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// result downloads a done job's canonical body.
func result(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d (body %s)", resp.StatusCode, body)
	}
	return body
}

// TestServeRunWarmAndByteEqual is the tentpole acceptance pin: a cold run
// executes once; the same request against a restarted server over the same
// cache directory executes zero simulations and serves byte-identical
// results; and those bytes deep-equal a direct experiments.Suite run
// rendered through the same encoder.
func TestServeRunWarmAndByteEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	_, cold := newTestServer(t, Config{CacheDir: dir})
	st := submit(t, cold, runRequest(), http.StatusAccepted)
	st = await(t, cold, st.ID)
	if st.State != StateDone {
		t.Fatalf("cold job state = %s (%s)", st.State, st.Error)
	}
	if st.RunsExecuted == 0 {
		t.Fatal("cold job executed no simulations")
	}
	coldBody := result(t, cold, st.ID)

	// "Crash" and restart: a fresh Server (empty registry) over the same
	// cache directory must serve the identical result with zero work.
	warmSrv, warm := newTestServer(t, Config{CacheDir: dir})
	st2 := submit(t, warm, runRequest(), http.StatusAccepted)
	st2 = await(t, warm, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("warm job state = %s (%s)", st2.State, st2.Error)
	}
	if st2.RunsExecuted != 0 {
		t.Fatalf("warm job executed %d simulations, want 0", st2.RunsExecuted)
	}
	if st2.ID != st.ID {
		t.Fatalf("warm job ID %s differs from cold %s", st2.ID, st.ID)
	}
	warmBody := result(t, warm, st2.ID)
	if !bytes.Equal(warmBody, coldBody) {
		t.Errorf("warm body differs from cold:\n--- cold\n%s\n--- warm\n%s", coldBody, warmBody)
	}

	// Direct suite reference: same options as the job's, fresh cache-less
	// suite, rendered through the server's own encoder.
	norm, err := NormalizeRequest(runRequest(), warmSrv.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewSuite(experiments.Options{
		Scale:  workloads.SmallScale(),
		Warmup: testWarmup,
		Instrs: testInstrs,
	})
	res, err := suite.RunNamed("mcf_17", "tage64", "mini")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResultBody(RunResult{Request: norm, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, want) {
		t.Errorf("served body differs from direct suite run:\n--- direct\n%s\n--- served\n%s", want, coldBody)
	}
}

// TestServeConcurrentDuplicatesExecuteOnce pins server-boundary dedupe: N
// racing identical submissions resolve to one job and one executed
// simulation.
func TestServeConcurrentDuplicatesExecuteOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, ts := newTestServer(t, Config{MaxJobs: 4})
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/jobs", runRequest())
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submit %d status = %d (body %s)", i, resp.StatusCode, body)
				return
			}
			var st Status
			if err := json.Unmarshal(body, &st); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	st := await(t, ts, ids[0])
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if st.RunsExecuted != 1 {
		t.Fatalf("deduped job executed %d simulations, want 1", st.RunsExecuted)
	}
}

// TestServeFigureDeterministicAcrossJobs extends the j1≡j4 guarantee
// through the HTTP layer: the same figure served by a single-worker and a
// four-worker server (cold, separate caches) returns byte-identical
// bodies.
func TestServeFigureDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fetch := func(jobs int) []byte {
		_, ts := newTestServer(t, Config{CacheDir: t.TempDir(), Jobs: jobs})
		st := submit(t, ts, figureRequest("10"), http.StatusAccepted)
		st = await(t, ts, st.ID)
		if st.State != StateDone {
			t.Fatalf("j%d figure job state = %s (%s)", jobs, st.State, st.Error)
		}
		return result(t, ts, st.ID)
	}
	j1 := fetch(1)
	j4 := fetch(4)
	if !bytes.Equal(j1, j4) {
		t.Errorf("figure body differs between -j1 and -j4:\n--- j1\n%s\n--- j4\n%s", j1, j4)
	}
}

// TestServeCancelQueuedJob pins cancellation: with one job slot busy, a
// queued job cancelled before it starts terminates as cancelled with zero
// simulations executed.
func TestServeCancelQueuedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, ts := newTestServer(t, Config{MaxJobs: 1})
	// A figure job holds the single slot for many points, so the run job
	// submitted behind it is reliably still queued when the cancel lands.
	first := submit(t, ts, figureRequest("10"), http.StatusAccepted)
	awaitRunning(t, ts, first.ID)
	queued := submit(t, ts, runRequest(), http.StatusAccepted)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	st := await(t, ts, queued.ID)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job state = %s (%s)", st.State, st.Error)
	}
	if st.RunsExecuted != 0 {
		t.Fatalf("cancelled job executed %d simulations, want 0", st.RunsExecuted)
	}
	if resp, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job = %d (body %s), want 409", resp.StatusCode, body)
	}
	// The running job is unaffected.
	if st := await(t, ts, first.ID); st.State != StateDone {
		t.Errorf("first job state = %s (%s)", st.State, st.Error)
	}
}

// TestServeTraceDownload pins the Perfetto artifact path: a traced run
// serves a Chrome trace JSON, and untraced jobs 404 on /trace.
func TestServeTraceDownload(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, ts := newTestServer(t, Config{})
	req := runRequest()
	req.Trace = true
	st := submit(t, ts, req, http.StatusAccepted)
	st = await(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("traced job state = %s (%s)", st.State, st.Error)
	}
	if !st.HasTrace {
		t.Fatal("traced job reports no trace")
	}
	resp, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download = %d (body %s)", resp.StatusCode, body)
	}
	var envelope struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("trace is not a Chrome trace_event envelope: %v", err)
	}
	if len(envelope.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	plain := submit(t, ts, runRequest(), http.StatusAccepted)
	plain = await(t, ts, plain.ID)
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+plain.ID+"/trace"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of untraced job = %d, want 404", resp.StatusCode)
	}
}

// TestServeEventsStream pins the progress stream: it carries one line per
// completed point and terminates with the job.
func TestServeEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, runRequest(), http.StatusAccepted)
	resp, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 || lines[len(lines)-1] != "done" {
		t.Fatalf("events stream = %q, want point lines ending in done", lines)
	}
	if !strings.HasPrefix(lines[0], "point mcf_17/mini/") {
		t.Errorf("first event = %q, want a point line", lines[0])
	}
}

// TestServeDrain pins graceful shutdown: draining cancels queued jobs,
// waits for the running one, and refuses new submissions with 503.
func TestServeDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	srv, ts := newTestServer(t, Config{MaxJobs: 1})
	running := submit(t, ts, figureRequest("10"), http.StatusAccepted)
	awaitRunning(t, ts, running.ID)
	queued := submit(t, ts, runRequest(), http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := await(t, ts, running.ID); st.State != StateDone {
		t.Errorf("running job drained to %s (%s), want done", st.State, st.Error)
	}
	if st := await(t, ts, queued.ID); st.State != StateCancelled {
		t.Errorf("queued job drained to %s, want cancelled", st.State)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", figureRequest("2"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while drained = %d, want 503", resp.StatusCode)
	}
}

// TestServeCatalog pins the discovery endpoint.
func TestServeCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v1/catalog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog status = %d", resp.StatusCode)
	}
	var c catalog
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatal(err)
	}
	if c.Version != RequestVersion {
		t.Errorf("catalog version = %d", c.Version)
	}
	if len(c.Workloads) == 0 {
		t.Error("catalog workloads is empty")
	}
	seen := map[string]bool{}
	for _, wl := range c.Workloads {
		seen[wl.Name] = true
		if wl.FrontEnd != "exec" && wl.FrontEnd != "replay" {
			t.Errorf("workload %s: front_end = %q", wl.Name, wl.FrontEnd)
		}
		if (wl.FrontEnd == "replay") != (wl.Suite == workloads.TraceSuite) {
			t.Errorf("workload %s: front_end %q inconsistent with suite %q", wl.Name, wl.FrontEnd, wl.Suite)
		}
	}
	for _, name := range workloads.Names() {
		if !seen[name] {
			t.Errorf("catalog is missing built-in workload %s", name)
		}
	}
	// The catalog lists exactly the names the registries accept.
	for name, lists := range map[string][2][]string{
		"predictors": {c.Predictors, sim.PredictorNames()},
		"br_configs": {c.BRConfigs, runahead.ConfigNames()},
		"figures":    {c.Figures, experiments.FigureNames()},
	} {
		if got, want := strings.Join(lists[0], ","), strings.Join(lists[1], ","); got != want || want == "" {
			t.Errorf("catalog %s = [%s], want [%s]", name, got, want)
		}
	}
}

// TestServeUnknownJob pins 404s across the job endpoints.
func TestServeUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/job-nope", "/v1/jobs/job-nope/result", "/v1/jobs/job-nope/trace", "/v1/jobs/job-nope/events"} {
		resp, _ := getBody(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestConfigValidate mirrors the repo's Validate() rejection convention.
func TestConfigValidate(t *testing.T) {
	if err := (Config{Resume: true}).Validate(); err == nil {
		t.Error("Resume without CacheDir validated")
	}
	if _, err := New(Config{Resume: true}); err == nil {
		t.Error("New accepted a config its Validate rejects")
	}
	if err := (Config{CacheDir: "x", Resume: true, MaxJobs: 3}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
