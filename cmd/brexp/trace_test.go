package main

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runahead"
)

// traceCLI parses a -workload -trace command line over mcf_17 at a small
// quick-suite budget.
func traceCLI(t *testing.T, args ...string) (*cli, error) {
	t.Helper()
	base := []string{"-quick", "-warmup", "1000", "-instrs", "5000", "-workload", "mcf_17"}
	return parseArgs(append(base, args...), io.Discard)
}

// TestTraceConfigNames: -trace runs with no BR config and under every
// Table 2 configuration by the registry's spelling (core-only, not
// coreonly).
func TestTraceConfigNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range append([]string{""}, runahead.ConfigNames()...) {
		out := filepath.Join(dir, name+".json")
		c, err := traceCLI(t, "-br="+name, "-trace", out)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.runTrace(c.suite(), io.Discard); err != nil {
			t.Errorf("-br %q -trace: %v", name, err)
		}
		if _, err := os.Stat(out); err != nil {
			t.Errorf("-br %q -trace: %v", name, err)
		}
	}
}

// TestTraceFailureLeavesNoFile: a bad -trace-filter is a usage error and an
// unknown BR config fails the traced run; neither leaves a trace file.
func TestTraceFailureLeavesNoFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	if _, err := traceCLI(t, "-br", "mini", "-trace", out, "-trace-filter", "bogus"); err == nil {
		t.Error("-trace-filter bogus: accepted")
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("-trace-filter bogus left %s behind (stat: %v)", out, err)
	}

	c, err := traceCLI(t, "-br", "coreonly", "-trace", out)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.runTrace(c.suite(), io.Discard); err == nil || !strings.Contains(err.Error(), "core-only") {
		t.Errorf("-br coreonly -trace: error = %v, want one naming core-only", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("-br coreonly -trace left %s behind (stat: %v)", out, err)
	}
}
