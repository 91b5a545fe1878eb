package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestLensGolden pins the pipeline lens byte for byte. The leela_17 Mini
// window covers all seven stages and predictions taken from the prediction
// queues; the mcf_17 window is a baseline run with a recovery in it. The
// golden files are the lens's output when this test was added; regenerate
// them only for a deliberate change to the simulated machine or to the
// line format.
func TestLensGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		opts   lensOptions
	}{
		{"testdata/lens-leela_17-mini.txt", lensOptions{workload: "leela_17", config: "mini", start: 50_000, cycles: 60}},
		{"testdata/lens-mcf_17-baseline.txt", lensOptions{workload: "mcf_17", config: "baseline", start: 12_345, cycles: 40}},
	} {
		t.Run(tc.opts.workload+"/"+tc.opts.config, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := pipelineTrace(&got, tc.opts); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s: line %d differs:\n got: %q\nwant: %q", tc.golden, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", tc.golden, len(gl), len(wl))
		})
	}
}

// TestLensStageFilter checks that -stages keeps exactly the named stages.
func TestLensStageFilter(t *testing.T) {
	var got bytes.Buffer
	o := lensOptions{workload: "leela_17", config: "mini", start: 50_000, cycles: 60, stages: "flush, retire"}
	if err := pipelineTrace(&got, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	stages := map[string]int{}
	for _, l := range lines {
		stages[strings.Fields(l)[1]]++
	}
	if len(stages) != 2 || stages["flush"] == 0 || stages["retire"] == 0 {
		t.Fatalf("stage filter kept %v, want only flush and retire", stages)
	}
}

func TestLensRejectsUnknownConfig(t *testing.T) {
	err := pipelineTrace(&bytes.Buffer{}, lensOptions{workload: "leela_17", config: "huge", cycles: 1})
	if err == nil || !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("unknown config error = %v", err)
	}
}
