package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Baseline is a committed set of accepted findings, letting a new rule land
// before every pre-existing finding is fixed: baselined findings are
// reported separately and do not fail the build, while anything new does.
//
// The file format is one finding per line,
//
//	file: rule: message
//
// with '#' comments and blank lines ignored. Line numbers are deliberately
// omitted so unrelated edits that shift a finding do not invalidate the
// baseline; duplicate findings (same file, rule and message) are matched by
// count, so fixing one of three identical findings still surfaces nothing
// new but prevents a fourth from creeping in unnoticed.
//
// The baseline is a ratchet: a line that matches no finding is reported
// (see Filter), so a fixed finding's line cannot later absorb a new finding
// with the same text.
type Baseline struct {
	// lines maps each finding to the baseline-file line numbers that
	// accept it, in file order.
	lines map[string][]int
}

// BaselineLine is one line of a baseline file.
type BaselineLine struct {
	Line int
	Text string
}

// baselineKey renders a diagnostic in the baseline's line format.
func baselineKey(d Diagnostic) string {
	return fmt.Sprintf("%s: %s: %s", d.Pos.Filename, d.Rule, d.Message)
}

// ParseBaseline reads a baseline file's contents.
func ParseBaseline(data []byte) (*Baseline, error) {
	b := &Baseline{lines: make(map[string][]int)}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, ": ") < 2 {
			return nil, fmt.Errorf("baseline line %d: want \"file: rule: message\", got %q", i+1, line)
		}
		b.lines[line] = append(b.lines[line], i+1)
	}
	return b, nil
}

// Filter splits diagnostics into new findings and the count absorbed by the
// baseline, and returns the baseline lines that matched no finding, in file
// order. Matching is by (file, rule, message) with multiplicity; when fewer
// findings than lines share a text, the later lines are the unmatched ones.
// Unmatched lines mean something only when every rule ran.
func (b *Baseline) Filter(diags []Diagnostic) (kept []Diagnostic, baselined int, unmatched []BaselineLine) {
	used := make(map[string]int, len(b.lines))
	for _, d := range diags {
		k := baselineKey(d)
		if used[k] < len(b.lines[k]) {
			used[k]++
			baselined++
			continue
		}
		kept = append(kept, d)
	}
	// Not on the sim path, and the lines are sorted below.
	for k, lines := range b.lines {
		for _, l := range lines[used[k]:] {
			unmatched = append(unmatched, BaselineLine{Line: l, Text: k})
		}
	}
	sort.Slice(unmatched, func(i, j int) bool { return unmatched[i].Line < unmatched[j].Line })
	return kept, baselined, unmatched
}

// FormatBaseline renders diagnostics as baseline file contents: a header
// comment plus one sorted line per finding (duplicates repeated).
func FormatBaseline(diags []Diagnostic) []byte {
	lines := make([]string, 0, len(diags))
	for _, d := range diags {
		lines = append(lines, baselineKey(d))
	}
	sort.Strings(lines)
	var sb strings.Builder
	sb.WriteString("# brlint baseline: accepted pre-existing findings (one \"file: rule: message\" per line).\n")
	sb.WriteString("# Regenerate with: go run ./cmd/brlint -baseline brlint.baseline -write-baseline\n")
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}
