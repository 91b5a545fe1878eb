package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func diag(file string, line int, rule, msg string) Diagnostic {
	return Diagnostic{
		Pos:     token.Position{Filename: file, Line: line},
		Rule:    rule,
		Message: msg,
	}
}

func TestBaselineFilterMatchesByCount(t *testing.T) {
	bl, err := ParseBaseline([]byte(`
# comment
a.go: hot-path-alloc: make allocates
a.go: hot-path-alloc: make allocates
`))
	if err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		diag("a.go", 10, "hot-path-alloc", "make allocates"),
		diag("a.go", 20, "hot-path-alloc", "make allocates"),
		diag("a.go", 30, "hot-path-alloc", "make allocates"), // third copy: NOT baselined
		diag("b.go", 5, "determinism", "time.Now"),
	}
	kept, baselined, unmatched := bl.Filter(diags)
	if baselined != 2 || len(unmatched) != 0 {
		t.Fatalf("baselined = %d, unmatched = %v, want 2 and none", baselined, unmatched)
	}
	if len(kept) != 2 {
		t.Fatalf("kept = %v, want the third duplicate and the b.go finding", kept)
	}
	if kept[0].Pos.Line != 30 || kept[1].Pos.Filename != "b.go" {
		t.Fatalf("wrong findings kept: %v", kept)
	}
}

// TestBaselineLineNumbersIrrelevant: moving a finding to another line does
// not invalidate its baseline entry.
func TestBaselineLineNumbersIrrelevant(t *testing.T) {
	bl, err := ParseBaseline([]byte("a.go: determinism: time.Now\n"))
	if err != nil {
		t.Fatal(err)
	}
	kept, baselined, _ := bl.Filter([]Diagnostic{diag("a.go", 999, "determinism", "time.Now")})
	if len(kept) != 0 || baselined != 1 {
		t.Fatalf("line-shifted finding should still match: kept=%v baselined=%d", kept, baselined)
	}
}

// TestBaselineFilterReportsUnmatchedLines: a baseline line no finding
// matches is returned with its line number, so cmd/brlint can fail on it.
// Of three identical lines matched by one finding, the later two are the
// unmatched ones.
func TestBaselineFilterReportsUnmatchedLines(t *testing.T) {
	bl, err := ParseBaseline([]byte(`# header
a.go: hot-path-alloc: make allocates
a.go: hot-path-alloc: make allocates
b.go: determinism: fixed long ago
a.go: hot-path-alloc: make allocates
`))
	if err != nil {
		t.Fatal(err)
	}
	kept, baselined, unmatched := bl.Filter([]Diagnostic{diag("a.go", 7, "hot-path-alloc", "make allocates")})
	if len(kept) != 0 || baselined != 1 {
		t.Fatalf("kept=%v baselined=%d, want the one finding baselined", kept, baselined)
	}
	want := []BaselineLine{
		{3, "a.go: hot-path-alloc: make allocates"},
		{4, "b.go: determinism: fixed long ago"},
		{5, "a.go: hot-path-alloc: make allocates"},
	}
	if len(unmatched) != len(want) {
		t.Fatalf("unmatched = %v, want %v", unmatched, want)
	}
	for i := range want {
		if unmatched[i] != want[i] {
			t.Fatalf("unmatched = %v, want %v", unmatched, want)
		}
	}
}

func TestBaselineParseRejectsMalformedLine(t *testing.T) {
	if _, err := ParseBaseline([]byte("not a baseline line\n")); err == nil {
		t.Fatal("want parse error for malformed line")
	}
}

func TestBaselineFormatRoundTrips(t *testing.T) {
	diags := []Diagnostic{
		diag("b.go", 2, "determinism", "time.Now"),
		diag("a.go", 1, "hot-path-alloc", "make allocates"),
		diag("a.go", 9, "hot-path-alloc", "make allocates"),
	}
	data := FormatBaseline(diags)
	if !strings.HasPrefix(string(data), "#") {
		t.Fatalf("formatted baseline should start with a header comment:\n%s", data)
	}
	bl, err := ParseBaseline(data)
	if err != nil {
		t.Fatalf("formatted baseline must reparse: %v", err)
	}
	kept, baselined, _ := bl.Filter(diags)
	if len(kept) != 0 || baselined != len(diags) {
		t.Fatalf("round trip should absorb everything: kept=%v baselined=%d", kept, baselined)
	}
	// Sorted: a.go lines before b.go.
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	body := lines[2:]
	if !strings.HasPrefix(body[0], "a.go") || !strings.HasPrefix(body[2], "b.go") {
		t.Fatalf("baseline lines should be sorted:\n%s", data)
	}
}
