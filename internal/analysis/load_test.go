package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadModule builds a small on-disk module and checks the loader
// resolves module-internal imports, excludes test files, and harvests
// allow directives.
func TestLoadModule(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.test\n\ngo 1.22\n")
	write("internal/lo/lo.go", `package lo
import "sort"
// Keys returns m's keys in sorted order.
func Keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m { //brlint:allow determinism
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}`)
	write("internal/hi/hi.go", `package hi
import "example.test/internal/lo"
func First(m map[int]bool) int {
	ks := lo.Keys(m)
	if len(ks) == 0 {
		return -1
	}
	return ks[0]
}`)
	write("internal/hi/hi_test.go", `package hi
import "testing"
func TestExcluded(t *testing.T) { t.Fatal("test files must not be loaded") }`)

	prog, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range prog.Pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"example.test/internal/hi", "example.test/internal/lo"}
	if len(paths) != len(want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("loaded %v, want %v", paths, want)
		}
	}
	for _, p := range prog.Pkgs {
		if p.Types == nil || p.Types.Complete() == false {
			t.Errorf("package %s not fully type-checked", p.Path)
		}
		for _, f := range p.Files {
			name := prog.Fset.Position(f.Pos()).Filename
			if filepath.Base(name) == "hi_test.go" {
				t.Errorf("test file %s was loaded", name)
			}
		}
	}
	// The allow directive in lo.go must be on file.
	if len(prog.allowed) == 0 {
		t.Error("allow directives were not collected")
	}
}
