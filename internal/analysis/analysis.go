// Package analysis is a small, stdlib-only static-analysis framework for
// the simulator. It loads every package in the module with go/parser and
// go/types and runs simulator-specific analyzers over the typed syntax
// trees:
//
//   - determinism: no map iteration, math/rand globals or time.Now on the
//     simulation path (bit-reproducible runs are a correctness requirement;
//     see DESIGN.md "Determinism & static analysis").
//   - config-validate: every exported Config struct under internal/ has a
//     Validate() error method and every New* constructor taking one calls it.
//   - float-compare: no ==/!= on floating-point operands in the metric
//     packages.
//   - goroutine-safety: no go statements or sync primitives on the
//     simulation path; concurrency is confined to the experiment runner so
//     every sim.Run stays single-threaded and bit-reproducible.
//   - trace-guard: every trace.Tracer.Emit call sits inside an
//     `if tr.Enabled() { ... }` block, so runs with tracing disabled never
//     pay for event construction.
//   - snapshot-coverage: every exported field, and every field mutated on
//     the simulation path, of a struct with a CopyFrom(*T) method is
//     referenced by that method, so new mutable state cannot silently be
//     dropped from warmup forks.
//
// Vetted findings are suppressed in place with a directive comment:
//
//	//brlint:allow <rule> [<rule>...]
//
// either trailing the offending line or alone on the line above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at its offending source line.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the canonical file:line: rule: message
// form the driver prints and CI greps.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/sim").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded module: every package, type-checked, plus the
// shared FileSet and the collected allow directives.
type Program struct {
	Fset *token.FileSet
	// Pkgs is sorted by import path.
	Pkgs []*Package

	// allowed maps file -> line -> rule -> the directive suppressing it.
	allowed map[string]map[int]map[string]*allowDirective
	// directives is every //brlint:allow comment, for stale-suppression
	// detection.
	directives []*allowDirective

	// cg is the memoized whole-program call graph (built on first use).
	cg *CallGraph
}

// Analyzer is one named rule set run over the whole program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Diagnostic
}

// Analyzers returns the full brlint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		ConfigValidate(),
		FloatCompare(),
		GoroutineSafety(),
		TraceGuard(),
		SnapshotCoverage(),
		HotPathAlloc(),
		ConfigPartition(),
		StaleSuppression(),
	}
}

// Position resolves a token.Pos against the program's FileSet.
func (p *Program) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Run executes the analyzers, drops diagnostics suppressed by an allow
// directive, and returns the remainder sorted by file, line and rule. When
// the stale-suppression analyzer is among those selected, allow directives
// that suppressed nothing (for the rules that ran) are reported too.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	ran := make(map[string]bool)
	staleSelected := false
	for _, a := range analyzers {
		if a.Name == RuleStaleSuppression {
			staleSelected = true
			continue
		}
		ran[a.Name] = true
		for _, d := range a.Run(p) {
			if p.allowedAt(d.Pos, d.Rule) {
				continue
			}
			out = append(out, d)
		}
	}
	if staleSelected {
		for _, d := range p.staleDirectives(ran) {
			if p.allowedAt(d.Pos, d.Rule) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

const allowPrefix = "//brlint:allow"

// allowDirective is one //brlint:allow comment, tracking which of its rules
// actually suppressed a diagnostic so stale directives can be reported.
type allowDirective struct {
	pos   token.Position
	rules []string
	used  map[string]bool
}

// collectAllows harvests //brlint:allow directives from a parsed file. A
// directive suppresses the named rules on its own line (trailing comment)
// and on the line immediately below (standalone comment).
func (p *Program) collectAllows(file *ast.File) {
	if p.allowed == nil {
		p.allowed = make(map[string]map[int]map[string]*allowDirective)
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rules := strings.Fields(strings.TrimPrefix(c.Text, allowPrefix))
			if len(rules) == 0 {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			dir := &allowDirective{pos: pos, rules: rules, used: make(map[string]bool)}
			p.directives = append(p.directives, dir)
			byLine := p.allowed[pos.Filename]
			if byLine == nil {
				byLine = make(map[int]map[string]*allowDirective)
				p.allowed[pos.Filename] = byLine
			}
			for _, line := range []int{pos.Line, pos.Line + 1} {
				set := byLine[line]
				if set == nil {
					set = make(map[string]*allowDirective)
					byLine[line] = set
				}
				for _, r := range rules {
					set[r] = dir
				}
			}
		}
	}
}

func (p *Program) allowedAt(pos token.Position, rule string) bool {
	dir := p.allowed[pos.Filename][pos.Line][rule]
	if dir == nil {
		return false
	}
	dir.used[rule] = true
	return true
}

// pathHasSuffix reports whether an import path is, or ends with, suffix as
// a whole path element sequence ("repro/internal/sim" matches
// "internal/sim" but not "ternal/sim").
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// pathContainsElem reports whether elem appears as a path element
// ("repro/internal/sim" contains "internal").
func pathContainsElem(path, elem string) bool {
	for _, p := range strings.Split(path, "/") {
		if p == elem {
			return true
		}
	}
	return false
}
