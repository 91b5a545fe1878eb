package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runahead"
)

// TestTraceConfigNames: -trace-config takes baseline and every Table 2
// configuration under the registry's spelling (core-only, not coreonly).
func TestTraceConfigNames(t *testing.T) {
	dir := t.TempDir()
	opts := func(cfg string) traceOptions {
		return traceOptions{out: filepath.Join(dir, cfg+".json"), workload: "mcf_17", config: cfg,
			warmup: 1_000, instrs: 5_000}
	}
	for _, cfg := range append([]string{"baseline"}, runahead.ConfigNames()...) {
		if err := runTrace(opts(cfg)); err != nil {
			t.Errorf("-trace-config %s: %v", cfg, err)
		}
	}
	if err := runTrace(opts("coreonly")); err == nil || !strings.Contains(err.Error(), "core-only") {
		t.Errorf("-trace-config coreonly error = %v, want one naming core-only", err)
	}
}
