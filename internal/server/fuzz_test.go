package server

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzNormalizeRequest drives arbitrary request bodies through the submit
// path's DecodeRequest and NormalizeRequest. Neither may panic, and a
// request that normalizes must be a fixed point: normalizing it again
// yields the same request and the same job ID, or resubmitting a job's own
// request would start a different job.
func FuzzNormalizeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"version":1,"kind":"run","workload":"mcf_17"}`,
		`{"version":1,"kind":"run","workload":"mcf_17","predictor":"tage64","warmup":30000,"instrs":100000}`,
		`{"version":1,"kind":"run","workload":"mcf_17","br":"mini"}`,
		`{"version":1,"kind":"run","workload":"leela_17","predictor":"bimodal","br":"core-only","trace":true}`,
		`{"version":1,"kind":"run","workload":"mcf_17","predictor":"oracle"}`,
		`{"version":1,"kind":"run","workload":"mcf_17","br":"huge"}`,
		`{"version":1,"kind":"run","workload":"mcf_17","instrs":0}`,
		`{"version":1,"kind":"run","workload":"mcf_17","warmup":18446744073709551615,"instrs":1}`,
		`{"version":1,"kind":"run","workload":"quake3"}`,
		`{"version":1,"kind":"run","workload":"trace:/etc/hostname"}`,
		`{"version":1,"kind":"run","workload":"trace:leela@0123456789abcdef"}`,
		`{"version":1,"kind":"run","workload":"mcf_17","figure":"10"}`,
		`{"version":1,"kind":"run","workload":"mcf_17","sweep_instrs":10}`,
		`{"version":2,"kind":"run","workload":"mcf_17"}`,
		`{"version":1,"kind":"sweep"}`,
		`{"version":1,"kind":"figure","figure":"13"}`,
		`{"version":1,"kind":"figure","figure":"13","sweep_instrs":0}`,
		`{"version":1,"kind":"figure","figure":"13","sweep_workloads":["mcf_17"],"sweep_instrs":60000}`,
		`{"version":1,"kind":"figure","figure":"10","workloads":["mcf_17","bfs"]}`,
		`{"version":1,"kind":"figure","figure":"10","workloads":["trace:x"]}`,
		`{"version":1,"kind":"figure","figure":"12","sweep_workloads":["bfs"]}`,
		`{"version":1,"kind":"figure","figure":"99"}`,
		`{"version":1,"kind":"run","worklaod":"mcf_17"}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	d := testDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(strings.NewReader(string(body)))
		if err != nil {
			return
		}
		norm, err := NormalizeRequest(req, d)
		if err != nil {
			return
		}
		again, err := NormalizeRequest(norm, d)
		if err != nil {
			t.Fatalf("normalized request %+v rejected on renormalization: %v", norm, err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("renormalization changed the request:\n first: %+v\nsecond: %+v", norm, again)
		}
		if fingerprint(again) != fingerprint(norm) {
			t.Fatalf("renormalization changed the job ID: %s -> %s", fingerprint(norm), fingerprint(again))
		}
	})
}
