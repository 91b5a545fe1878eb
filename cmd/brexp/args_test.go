package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestParseArgsRejectsUnreadFlags: a flag the selected mode does not read
// is a usage error that names the flag and the mode.
func TestParseArgsRejectsUnreadFlags(t *testing.T) {
	for _, c := range []struct {
		args string
		want []string
	}{
		{"-quick -figure 2 -predictor ldbp -br big", []string{"-br is not read in figure mode", "-predictor is not read in figure mode"}},
		{"-trace t.json", []string{"-trace is not read in figure mode, only in -workload mode"}},
		{"-workload mcf_17 -figure 10", []string{"-figure is not read in -workload mode"}},
		{"-workload mcf_17 -sweepinstrs 1000 -j 2", []string{"-j is not read", "-sweepinstrs is not read"}},
		{"-workload mcf_17 -trace-filter pc=0x40", []string{"-trace-filter is not read without -trace"}},
		{"-figure 10 extra", []string{`unexpected argument "extra"`}},
		// Retired flags fail as undefined instead of running under other
		// semantics.
		{"-quick -cache-dir c -resume", []string{"flag provided but not defined: -resume"}},
		{"-quick -cache-dir c -no-cache", []string{"flag provided but not defined: -no-cache"}},
		{"-workload mcf_17 -trace t.json -trace-workload leela_17", []string{"flag provided but not defined: -trace-workload"}},
		{"-workload mcf_17 -trace t.json -trace-config big", []string{"flag provided but not defined: -trace-config"}},
	} {
		_, err := parseArgs(strings.Fields(c.args), io.Discard)
		if err == nil {
			t.Errorf("brexp %s: accepted", c.args)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("brexp %s: error %q does not say %q", c.args, err, w)
			}
		}
	}
}

// TestParseArgsAcceptsDocumentedUsage: every brexp usage in main.go's doc
// comment, and every one CI runs, still parses, in the mode it implies.
func TestParseArgsAcceptsDocumentedUsage(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var usages []string
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(line, "//\tbrexp"); ok {
			usages = append(usages, strings.TrimSpace(strings.SplitN(rest, "#", 2)[0]))
		}
	}
	if len(usages) < 10 {
		t.Fatalf("found %d usages in main.go's doc comment, want at least 10", len(usages))
	}
	usages = append(usages,
		"-figure 15 -quick -j 4",
		"-figure 15 -quick -j 4 -json",
		"-quick -j 1",
		"-quick -j 4 -cache-dir brcache",
		"-quick -j 2 -cache-dir brcache",
		"-quick -share-warmup -j 1",
		"-quick -share-warmup -j 4",
		"-quick -workload mcf_17 -br mini",
		"-quick -workload mcf_17 -br mini -trace out.json",
		"-workload trace:leela_17.btr -warmup 20000 -instrs 60000",
	)
	for _, u := range usages {
		c, err := parseArgs(strings.Fields(u), io.Discard)
		if err != nil {
			t.Errorf("brexp %s: %v", u, err)
			continue
		}
		want := modeFigures
		if strings.Contains(u, "-workload ") {
			want = modeWorkload
		}
		if c.mode != want {
			t.Errorf("brexp %s: parsed as %s, want %s", u, c.mode, want)
		}
	}
}
