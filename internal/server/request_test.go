package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/runahead"
	"repro/internal/sim"
)

func testDefaults() Defaults {
	return Defaults{Warmup: 30_000, Instrs: 100_000, SweepInstrs: 60_000}
}

// TestNormalizeRejections table-drives every invalid request field through
// NormalizeRequest, mirroring the repo's Validate() rejection convention:
// each bad field has a specific error naming it.
func TestNormalizeRejections(t *testing.T) {
	mut := func(f func(*Request)) Request {
		r := Request{Version: RequestVersion, Kind: "run", Workload: "mcf_17"}
		f(&r)
		return r
	}
	cases := []struct {
		name    string
		req     Request
		wantErr string
	}{
		{"missing version", mut(func(r *Request) { r.Version = 0 }), "version 0"},
		{"future version", mut(func(r *Request) { r.Version = 2 }), "version 2"},
		{"unknown kind", mut(func(r *Request) { r.Kind = "sweep" }), "unknown kind"},
		{"empty kind", mut(func(r *Request) { r.Kind = "" }), "unknown kind"},
		{"run without workload", mut(func(r *Request) { r.Workload = "" }), "workload required"},
		{"unknown workload", mut(func(r *Request) { r.Workload = "quake3" }), `unknown workload "quake3"`},
		{"unknown predictor", mut(func(r *Request) { r.Predictor = "oracle" }), `unknown predictor "oracle"`},
		{"unknown BR config", mut(func(r *Request) { r.BR = "huge" }), `unknown BR config "huge"`},
		{"zero instrs", mut(func(r *Request) { r.Instrs = u64p(0) }), "instrs must be > 0"},
		{"warmup overflow", mut(func(r *Request) { r.Warmup = u64p(^uint64(0)); r.Instrs = u64p(1) }),
			"overflows the instruction budget"},
		{"figure on run request", mut(func(r *Request) { r.Figure = "10" }), "figure field applies only"},
		{"sweep limits on run request", mut(func(r *Request) { r.SweepInstrs = u64p(10) }),
			"sweep budgets apply only"},
		{"sweep workloads on run request", mut(func(r *Request) { r.SweepWorkloads = []string{"bfs"} }),
			"sweep budgets apply only"},
		{"workload list on run request", mut(func(r *Request) { r.Workloads = []string{"bfs"} }),
			"sweep budgets apply only"},
		{"unknown figure", Request{Version: RequestVersion, Kind: "figure", Figure: "99"},
			`unknown figure "99"`},
		{"figure with run fields", Request{Version: RequestVersion, Kind: "figure", Figure: "10", Workload: "bfs"},
			"apply only to run requests"},
		{"figure with trace", Request{Version: RequestVersion, Kind: "figure", Figure: "10", Trace: true},
			"apply only to run requests"},
		{"figure with unknown workload", Request{Version: RequestVersion, Kind: "figure", Figure: "10",
			Workloads: []string{"quake3"}}, `unknown workload "quake3"`},
		{"sweep limits on non-sweep figure", Request{Version: RequestVersion, Kind: "figure", Figure: "10",
			SweepInstrs: u64p(10)}, "sweep budgets apply only"},
		{"sweep workloads on non-sweep figure", Request{Version: RequestVersion, Kind: "figure", Figure: "12",
			SweepWorkloads: []string{"bfs"}}, "sweep budgets apply only"},
		{"zero sweep instrs", Request{Version: RequestVersion, Kind: "figure", Figure: "13",
			SweepInstrs: u64p(0)}, "sweep_instrs must be > 0"},
		{"sweep with unknown workload", Request{Version: RequestVersion, Kind: "figure", Figure: "13",
			SweepWorkloads: []string{"quake3"}}, `unknown workload "quake3"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NormalizeRequest(c.req, testDefaults())
			if err == nil {
				t.Fatalf("request %+v normalized without error, want %q", c.req, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestNormalizeDefaultsAndFingerprint pins the idempotence property the
// job registry depends on: an all-defaults request and one spelling out
// those defaults normalize to the same fingerprint; changing any field
// changes it.
func TestNormalizeDefaultsAndFingerprint(t *testing.T) {
	d := testDefaults()
	bare, err := NormalizeRequest(Request{Version: RequestVersion, Kind: "run", Workload: "mcf_17"}, d)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Predictor != "tage64" {
		t.Errorf("default predictor = %q", bare.Predictor)
	}
	if bare.Warmup == nil || *bare.Warmup != d.Warmup || bare.Instrs == nil || *bare.Instrs != d.Instrs {
		t.Errorf("defaults not materialized: %+v", bare)
	}
	explicit, err := NormalizeRequest(Request{
		Version: RequestVersion, Kind: "run", Workload: "mcf_17", Predictor: "tage64",
		Warmup: u64p(d.Warmup), Instrs: u64p(d.Instrs),
	}, d)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(bare) != fingerprint(explicit) {
		t.Error("explicit-defaults request fingerprints differently from bare request")
	}
	other, err := NormalizeRequest(Request{Version: RequestVersion, Kind: "run", Workload: "mcf_17", BR: "mini"}, d)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(bare) == fingerprint(other) {
		t.Error("distinct requests share a fingerprint")
	}
	// The sweep default materializes only for the sweep figure.
	fig, err := NormalizeRequest(Request{Version: RequestVersion, Kind: "figure", Figure: "13"}, d)
	if err != nil {
		t.Fatal(err)
	}
	if fig.SweepInstrs == nil || *fig.SweepInstrs != d.SweepInstrs {
		t.Errorf("figure 13 sweep default not materialized: %+v", fig)
	}
	if plain, err := NormalizeRequest(Request{Version: RequestVersion, Kind: "figure", Figure: "10"}, d); err != nil {
		t.Fatal(err)
	} else if plain.SweepInstrs != nil {
		t.Error("non-sweep figure grew a sweep budget")
	}
}

// TestNormalizeAcceptsEveryRegisteredName: run requests take every name
// the predictor and BR-config registries know, bimodal included.
func TestNormalizeAcceptsEveryRegisteredName(t *testing.T) {
	for _, pred := range sim.PredictorNames() {
		for _, br := range append([]string{""}, runahead.ConfigNames()...) {
			req := Request{Version: RequestVersion, Kind: "run", Workload: "mcf_17", Predictor: pred, BR: br}
			if _, err := NormalizeRequest(req, testDefaults()); err != nil {
				t.Errorf("predictor %q, BR %q rejected: %v", pred, br, err)
			}
		}
	}
}

// TestJobIDsPinned pins job IDs, which clients hold on to across server
// restarts: the normalized encoding of a request must not drift.
func TestJobIDsPinned(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{Version: 1, Kind: "run", Workload: "mcf_17"}, "job-18e862b08001be43"},
		{Request{Version: 1, Kind: "run", Workload: "leela_17", Predictor: "bullseye", BR: "mini", Trace: true},
			"job-83863aa81dcc170e"},
		{Request{Version: 1, Kind: "run", Workload: "bfs", BR: "core-only", Warmup: u64p(0), Instrs: u64p(5000)},
			"job-878ab67182024ab4"},
		{Request{Version: 1, Kind: "figure", Figure: "13"}, "job-0ad1e2527b7600b7"},
		{Request{Version: 1, Kind: "figure", Figure: "15", Workloads: []string{"mcf_17", "bfs"}},
			"job-a75e4735069b25e5"},
	} {
		n, err := NormalizeRequest(tc.req, testDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(n); got != tc.want {
			t.Errorf("job ID of %+v = %s, want %s", tc.req, got, tc.want)
		}
	}
}

// TestDecodeRejectsUnknownFields pins that a typo'd field is an error, not
// a silently-defaulted value.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeRequest(strings.NewReader(`{"version":1,"kind":"run","worklaod":"mcf_17"}`))
	if err == nil || !strings.Contains(err.Error(), "worklaod") {
		t.Fatalf("unknown field error = %v", err)
	}
}

// TestSubmitRejectionsOverHTTP spot-checks that validation errors surface
// as 400s with the validation message in the body.
func TestSubmitRejectionsOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for body, wantErr := range map[string]string{
		`{"version":1,"kind":"run","workload":"mcf_17","predictor":"oracle"}`: "unknown predictor",
		`{"version":1,"kind":"run","workload":"mcf_17","instrs":0}`:           "instrs must be > 0",
		`not json`: "request body",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		respBody := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", body, resp.StatusCode)
			continue
		}
		var e apiError
		if err := json.Unmarshal(respBody, &e); err != nil || !strings.Contains(e.Error, wantErr) {
			t.Errorf("submit %s error = %q, want mention of %q", body, respBody, wantErr)
		}
	}
}

// TestResultBodyStability pins the canonical encoding: indented JSON with
// a trailing newline, stable across calls.
func TestResultBodyStability(t *testing.T) {
	v := FigureResult{Request: Request{Version: 1, Kind: "figure", Figure: "2"}}
	a, err := ResultBody(v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResultBody(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("ResultBody is not stable across calls")
	}
	if a[len(a)-1] != '\n' {
		t.Error("ResultBody missing trailing newline")
	}
}
