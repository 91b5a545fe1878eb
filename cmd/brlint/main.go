// Command brlint runs the simulator's static-analysis suite (package
// repro/internal/analysis) over the whole module and reports findings as
//
//	file:line: rule: message
//
// or, with -json, as a machine-readable report. It is part of the pre-PR
// `make check` gate and the CI lint job; see DESIGN.md "Determinism & static
// analysis" for the rules and the rationale.
//
// Usage:
//
//	go run ./cmd/brlint [flags] [./...]
//
// The package pattern argument is accepted for familiarity but the whole
// module is always loaded: the rules are cross-package contracts (call-graph
// reachability, config-validate, config-partition) that only make sense
// module-wide.
//
// Exit codes are a contract CI relies on:
//
//	0 — clean (every finding fixed, suppressed or baselined)
//	1 — at least one non-baselined finding
//	2 — usage error or the module failed to load/type-check
//
// A committed baseline (-baseline brlint.baseline) lets a new rule land
// before all of its pre-existing findings are fixed; -write-baseline
// regenerates the file from the current findings. The baseline only
// ratchets down: when every rule runs, a baseline line that matches no
// finding is itself a stale-suppression finding (at the line of the
// baseline file), exactly as an unused //brlint:allow directive is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

const (
	exitClean     = 0
	exitFindings  = 1
	exitUsageLoad = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json output schema, pinned by TestJSONGolden.
type jsonReport struct {
	// Rules is every rule that ran, sorted.
	Rules []string `json:"rules"`
	// Findings are the non-baselined findings, sorted by file, line, rule,
	// followed by the stale baseline lines.
	Findings []jsonFinding `json:"findings"`
	// Baselined counts findings absorbed by the -baseline file.
	Baselined int `json:"baselined"`
}

type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("brlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report on stdout")
	baselinePath := fs.String("baseline", "", "baseline file of accepted findings; new findings still fail")
	writeBaseline := fs.Bool("write-baseline", false, "rewrite the -baseline file from the current findings and exit 0")
	dirFlag := fs.String("dir", "", "module root to analyze (default: nearest go.mod above the working directory)")
	if err := fs.Parse(args); err != nil {
		return exitUsageLoad
	}

	all := analysis.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	selected := all
	if *rules != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		var known []string
		for _, a := range all {
			byName[a.Name] = a
			known = append(known, a.Name)
		}
		selected = nil
		for _, name := range strings.Split(*rules, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "brlint: unknown rule %q (known: %s)\n",
					name, strings.Join(known, ", "))
				return exitUsageLoad
			}
			selected = append(selected, a)
		}
	}

	root := *dirFlag
	if root == "" {
		var err error
		root, err = moduleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "brlint:", err)
			return exitUsageLoad
		}
	}
	prog, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "brlint:", err)
		return exitUsageLoad
	}
	diags := prog.Run(selected)

	// Report module-root-relative paths: stable across checkouts, and what
	// the committed baseline stores.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}

	if *writeBaseline {
		if *baselinePath == "" {
			fmt.Fprintln(stderr, "brlint: -write-baseline requires -baseline <file>")
			return exitUsageLoad
		}
		if err := os.WriteFile(*baselinePath, analysis.FormatBaseline(diags), 0o644); err != nil {
			fmt.Fprintln(stderr, "brlint:", err)
			return exitUsageLoad
		}
		fmt.Fprintf(stderr, "brlint: wrote %d finding(s) to %s\n", len(diags), *baselinePath)
		return exitClean
	}

	baselined := 0
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "brlint:", err)
			return exitUsageLoad
		}
		bl, err := analysis.ParseBaseline(data)
		if err != nil {
			fmt.Fprintf(stderr, "brlint: %s: %v\n", *baselinePath, err)
			return exitUsageLoad
		}
		var unmatched []analysis.BaselineLine
		diags, baselined, unmatched = bl.Filter(diags)
		// A subset run leaves the other rules' lines unmatched by design.
		if *rules == "" {
			for _, l := range unmatched {
				diags = append(diags, analysis.Diagnostic{
					Pos:     token.Position{Filename: *baselinePath, Line: l.Line},
					Rule:    analysis.RuleStaleSuppression,
					Message: "baseline line matches no finding; remove it: " + l.Text,
				})
			}
		}
	}

	if *jsonOut {
		report := jsonReport{Findings: []jsonFinding{}, Baselined: baselined}
		for _, a := range selected {
			report.Rules = append(report.Rules, a.Name)
		}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "brlint:", err)
			return exitUsageLoad
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "brlint: %d finding(s)", len(diags))
		if baselined > 0 {
			fmt.Fprintf(stderr, " (+%d baselined)", baselined)
		}
		fmt.Fprintln(stderr)
		return exitFindings
	}
	if baselined > 0 {
		fmt.Fprintf(stderr, "brlint: clean (%d baselined)\n", baselined)
	}
	return exitClean
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
