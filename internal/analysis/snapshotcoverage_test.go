package analysis

import (
	"strings"
	"testing"
)

// snapshotFixture builds one component package under test.
func snapshotFixture(t *testing.T, src string) *Program {
	t.Helper()
	return loadFixture(t,
		fixturePkg{
			path:  "repro/internal/comp",
			files: map[string]string{"comp.go": src},
		},
	)
}

func TestSnapshotCoverageFlagsUncopiedExportedField(t *testing.T) {
	prog := snapshotFixture(t, `package comp
type Unit struct {
	Counter uint64
	Skipped uint64
	hidden  uint64
}
func (u *Unit) CopyFrom(w *Unit) { u.Counter = w.Counter }
`)
	diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()})
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic (Skipped), got %v", diags)
	}
	if !strings.Contains(diags[0], "Skipped") || !strings.Contains(diags[0], RuleSnapshotCoverage) {
		t.Fatalf("diagnostic should name the Skipped field: %v", diags[0])
	}
}

func TestSnapshotCoverageIgnoresOtherCopyFromShapes(t *testing.T) {
	// A CopyFrom taking anything but a pointer to its own type is not a
	// copy method.
	prog := snapshotFixture(t, `package comp
type Other struct{}
type Unit struct {
	Counter uint64
}
func (u *Unit) CopyFrom(o *Other) {}
type Saved struct {
	Counter uint64
}
func (s *Saved) CopyFrom(path string) {}
`)
	if diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()}); len(diags) != 0 {
		t.Fatalf("want no diagnostics, got %v", diags)
	}
}

func TestSnapshotCoverageReferenceOutsideCopyMethodDoesNotCount(t *testing.T) {
	// A helper the copy method calls, even in the same file, does not cover
	// the fields it touches: the copy method itself must name each one.
	prog := snapshotFixture(t, `package comp
type Unit struct {
	Counter uint64
	Hits    uint64
}
func (u *Unit) Touch() { u.Hits++ }
func (u *Unit) CopyFrom(w *Unit) {
	u.Counter = w.Counter
	copyHits(u, w)
}
func copyHits(u, w *Unit) { u.Hits = w.Hits }
`)
	diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()})
	if len(diags) != 1 || !strings.Contains(diags[0], "Hits") {
		t.Fatalf("a reference outside the copy method must not count as coverage, got %v", diags)
	}
}

func TestSnapshotCoverageAllowDirective(t *testing.T) {
	prog := snapshotFixture(t, `package comp
type Unit struct {
	Counter uint64
	// Derived handle, rebuilt at construction.
	//brlint:allow snapshot-coverage
	Handle uint64
}
func (u *Unit) CopyFrom(w *Unit) { u.Counter = w.Counter }
`)
	if diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()}); len(diags) != 0 {
		t.Fatalf("allow directive should suppress the finding, got %v", diags)
	}
}

// TestSnapshotCoverageFlagsMutatedUnexportedField: an unexported field
// mutated by code on (or reachable from) the simulation path must be
// copied too — an exported-only check would miss exactly this. An
// unexported field the sim path never mutates is not checked.
func TestSnapshotCoverageFlagsMutatedUnexportedField(t *testing.T) {
	prog := loadFixture(t,
		fixturePkg{
			path: "repro/internal/core",
			files: map[string]string{
				"core.go": `package core
type Unit struct {
	Counter uint64
	clock   uint64 // mutated every cycle, missing from the copy
	scratch uint64 // never mutated on the sim path: not checked
}
func (u *Unit) Cycle() { u.tick() }
func (u *Unit) tick()  { u.clock++ }
func (u *Unit) CopyFrom(w *Unit) { u.Counter = w.Counter }
`,
			},
		},
	)
	diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()})
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic (clock), got %v", diags)
	}
	if !strings.Contains(diags[0], "clock") || !strings.Contains(diags[0], "mutated on the sim path") {
		t.Fatalf("diagnostic should name the mutated unexported field: %v", diags[0])
	}
}

// TestSnapshotCoverageFlagsFieldMutatedThroughPointerMethod: a counter
// field incremented through a pointer-receiver method (hits.Inc()) is
// mutated as surely as one incremented with ++. A value-receiver read
// (misses.Get()) mutates nothing.
func TestSnapshotCoverageFlagsFieldMutatedThroughPointerMethod(t *testing.T) {
	prog := loadFixture(t,
		fixturePkg{
			path: "repro/internal/core",
			files: map[string]string{
				"core.go": `package core
type Counter uint64
func (c *Counter) Inc()      { *c++ }
func (c Counter) Get() uint64 { return uint64(c) }
type Unit struct {
	hits   Counter // incremented every cycle, missing from the copy
	misses Counter // only read on the sim path: not checked
}
func (u *Unit) Cycle() uint64 { u.hits.Inc(); return u.misses.Get() }
func (u *Unit) CopyFrom(w *Unit) {}
`,
			},
		},
	)
	diags := diagStrings(prog, []*Analyzer{SnapshotCoverage()})
	if len(diags) != 1 {
		t.Fatalf("want 1 diagnostic (hits), got %v", diags)
	}
	if !strings.Contains(diags[0], "hits") || !strings.Contains(diags[0], "mutated on the sim path") {
		t.Fatalf("diagnostic should name the field incremented through Inc: %v", diags[0])
	}
}
