package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// runBrlint invokes the driver in-process against a testdata module.
func runBrlint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errB bytes.Buffer
	code = run(args, &out, &errB)
	return code, out.String(), errB.String()
}

func fixture(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestExitCleanModule(t *testing.T) {
	code, stdout, stderr := runBrlint(t, "-dir", fixture(t, "clean"))
	if code != exitClean {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitClean, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean module should print nothing, got %q", stdout)
	}
}

func TestExitFindings(t *testing.T) {
	code, stdout, stderr := runBrlint(t, "-dir", fixture(t, "dirty"))
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d (stderr: %s)", code, exitFindings, stderr)
	}
	if !strings.Contains(stdout, "determinism") || !strings.Contains(stdout, "time.Now") {
		t.Fatalf("findings should be printed on stdout, got %q", stdout)
	}
	if !strings.Contains(stderr, "2 finding(s)") {
		t.Fatalf("stderr should summarize the count, got %q", stderr)
	}
	// Paths are module-root-relative with forward slashes.
	if !strings.Contains(stdout, "internal/core/core.go:") {
		t.Fatalf("findings should use module-relative paths, got %q", stdout)
	}
}

func TestExitLoadError(t *testing.T) {
	code, _, stderr := runBrlint(t, "-dir", fixture(t, "broken"))
	if code != exitUsageLoad {
		t.Fatalf("exit = %d, want %d", code, exitUsageLoad)
	}
	if !strings.Contains(stderr, "brlint:") {
		t.Fatalf("load error should be reported on stderr, got %q", stderr)
	}
}

func TestExitUsageErrors(t *testing.T) {
	if code, _, _ := runBrlint(t, "-no-such-flag"); code != exitUsageLoad {
		t.Fatalf("unknown flag: exit = %d, want %d", code, exitUsageLoad)
	}
	if code, _, stderr := runBrlint(t, "-rules", "no-such-rule", "-dir", fixture(t, "clean")); code != exitUsageLoad || !strings.Contains(stderr, "unknown rule") {
		t.Fatalf("unknown rule: exit = %d, stderr = %q", code, stderr)
	}
	// The retired baseline flags fail as undefined, so a stale script
	// fails loudly instead of running without its baseline.
	for _, args := range [][]string{{"-baseline", "brlint.baseline"}, {"-write-baseline"}} {
		code, _, stderr := runBrlint(t, append(args, "-dir", fixture(t, "dirty"))...)
		if code != exitUsageLoad || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Fatalf("brlint %s: exit = %d, stderr = %q", strings.Join(args, " "), code, stderr)
		}
	}
}

func TestListExitsClean(t *testing.T) {
	code, stdout, _ := runBrlint(t, "-list")
	if code != exitClean || !strings.Contains(stdout, "determinism") || !strings.Contains(stdout, "hot-path-alloc") {
		t.Fatalf("-list: exit = %d, stdout = %q", code, stdout)
	}
}

func TestRulesSubset(t *testing.T) {
	// Only trace-guard selected: the dirty module's determinism findings
	// must not appear.
	code, stdout, _ := runBrlint(t, "-rules", "trace-guard", "-dir", fixture(t, "dirty"))
	if code != exitClean || stdout != "" {
		t.Fatalf("subset run should be clean: exit = %d, stdout = %q", code, stdout)
	}
}

// TestJSONGolden pins the -json schema against a committed golden file, so
// CI consumers (the artifact upload, any dashboard parsing it) get schema
// breaks flagged in review. Regenerate with: go test ./cmd/brlint -run
// TestJSONGolden -update
func TestJSONGolden(t *testing.T) {
	code, stdout, _ := runBrlint(t, "-json", "-dir", fixture(t, "dirty"))
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d", code, exitFindings)
	}

	golden := filepath.Join("testdata", "dirty.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Fatalf("-json output diverges from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", golden, stdout, want)
	}

	// The report must also be valid JSON with the pinned field names.
	var rep struct {
		Rules    []string `json:"rules"`
		Findings []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(rep.Findings) != 2 || rep.Findings[0].File != "internal/core/core.go" || rep.Findings[0].Line == 0 {
		t.Fatalf("unexpected findings: %+v", rep.Findings)
	}
}

// TestJSONCleanShape: a clean module still emits the full schema with an
// empty (not null) findings array.
func TestJSONCleanShape(t *testing.T) {
	code, stdout, _ := runBrlint(t, "-json", "-dir", fixture(t, "clean"))
	if code != exitClean {
		t.Fatalf("exit = %d, want %d", code, exitClean)
	}
	if !strings.Contains(stdout, `"findings": []`) {
		t.Fatalf("clean report should have an empty findings array, got %s", stdout)
	}
}
