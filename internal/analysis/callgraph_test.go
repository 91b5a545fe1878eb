package analysis

import (
	"strings"
	"testing"
)

// nodeByName finds a graph node by its diagnostic name.
func nodeByName(t *testing.T, g *CallGraph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name() == name {
			return n
		}
	}
	var names []string
	for _, n := range g.Nodes {
		names = append(names, n.Name())
	}
	t.Fatalf("no node named %q (have %s)", name, strings.Join(names, ", "))
	return nil
}

// calleeNames renders a node's outgoing edges for comparison.
func calleeNames(g *CallGraph, n *Node) map[string]bool {
	out := make(map[string]bool)
	for _, c := range g.Callees(n) {
		out[c.Name()] = true
	}
	return out
}

func TestCallGraphDirectEdges(t *testing.T) {
	prog := loadFixture(t,
		fixturePkg{path: "repro/internal/util", files: map[string]string{"util.go": `package util
func Helper() {}
`}},
		fixturePkg{path: "repro/internal/app", files: map[string]string{"app.go": `package app
import "repro/internal/util"
type T struct{}
func (t *T) M() { local() }
func local()   { util.Helper() }
func Entry()   { (&T{}).M() }
`}},
	)
	g := prog.CallGraph()

	entry := nodeByName(t, g, "app.Entry")
	if !calleeNames(g, entry)["app.(T).M"] {
		t.Fatalf("Entry should call (*T).M directly, got %v", calleeNames(g, entry))
	}
	m := nodeByName(t, g, "app.(T).M")
	if !calleeNames(g, m)["app.local"] {
		t.Fatalf("(*T).M should call local, got %v", calleeNames(g, m))
	}
	local := nodeByName(t, g, "app.local")
	if !calleeNames(g, local)["util.Helper"] {
		t.Fatalf("local should call util.Helper cross-package, got %v", calleeNames(g, local))
	}
}

func TestCallGraphInterfaceEdges(t *testing.T) {
	// A call through an interface must fan out to every module type whose
	// method set implements it — and only to the named method.
	prog := loadFixture(t, fixturePkg{path: "repro/internal/app", files: map[string]string{"app.go": `package app
type Ticker interface {
	Tick()
	Reset()
}
type Clock struct{}
func (c *Clock) Tick()  {}
func (c *Clock) Reset() {}
type Timer struct{}
func (t Timer) Tick()  {}
func (t Timer) Reset() {}
type Unrelated struct{}
func (u *Unrelated) Tick() {} // no Reset: not a Ticker
func Drive(tk Ticker) { tk.Tick() }
`}})
	g := prog.CallGraph()
	drive := nodeByName(t, g, "app.Drive")
	got := calleeNames(g, drive)
	for _, want := range []string{"app.(Clock).Tick", "app.(Timer).Tick"} {
		if !got[want] {
			t.Errorf("Drive should fan out to %s, got %v", want, got)
		}
	}
	for name := range got {
		if strings.Contains(name, "Unrelated") {
			t.Errorf("Unrelated does not implement Ticker but got edge to %s", name)
		}
		if strings.Contains(name, "Reset") {
			t.Errorf("only Tick is called but got edge to %s", name)
		}
	}
}

func TestCallGraphFunctionValueEdges(t *testing.T) {
	// A call through a function value conservatively reaches every
	// address-taken function with an identical signature — and nothing with
	// a different one.
	prog := loadFixture(t, fixturePkg{path: "repro/internal/app", files: map[string]string{"app.go": `package app
var hook func(int)
func candidate(x int)    {}
func otherShape(x int64) {}
func install() {
	hook = candidate
	_ = otherShape // address-taken, but wrong signature
}
func Drive() { hook(1) }
`}})
	g := prog.CallGraph()
	drive := nodeByName(t, g, "app.Drive")
	got := calleeNames(g, drive)
	if !got["app.candidate"] {
		t.Fatalf("Drive should reach address-taken candidate through the function value, got %v", got)
	}
	if got["app.otherShape"] {
		t.Fatalf("otherShape has a different signature and must not be reached, got %v", got)
	}
}

func TestCallGraphClosureCreatorEdges(t *testing.T) {
	// A closure handed to the stdlib (whose body we never see) must still be
	// reachable from its creator.
	prog := loadFixture(t, fixturePkg{path: "repro/internal/app", files: map[string]string{"app.go": `package app
import "sort"
func Order(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
`}})
	g := prog.CallGraph()
	order := nodeByName(t, g, "app.Order")
	got := calleeNames(g, order)
	if !got["func literal in app.Order"] {
		t.Fatalf("Order should have a creator edge to its sort comparator, got %v", got)
	}
	reach := g.Reachable([]*Node{order})
	lit := nodeByName(t, g, "func literal in app.Order")
	if _, ok := reach[lit]; !ok {
		t.Fatalf("comparator literal must be reachable from Order")
	}
}

func TestCallGraphMethodValueCallback(t *testing.T) {
	// x.M passed as a callback: the receiver-stripped signature must match
	// the function-value call site.
	prog := loadFixture(t, fixturePkg{path: "repro/internal/app", files: map[string]string{"app.go": `package app
type T struct{}
func (t *T) Handle(x int) {}
var cb func(int)
func install(t *T) { cb = t.Handle }
func Drive()       { cb(7) }
`}})
	g := prog.CallGraph()
	drive := nodeByName(t, g, "app.Drive")
	if got := calleeNames(g, drive); !got["app.(T).Handle"] {
		t.Fatalf("Drive should reach the method value (*T).Handle, got %v", got)
	}
}

func TestCallGraphPathRendersChain(t *testing.T) {
	prog := loadFixture(t, fixturePkg{path: "repro/internal/app", files: map[string]string{"app.go": `package app
func A() { B() }
func B() { C() }
func C() {}
`}})
	g := prog.CallGraph()
	a := nodeByName(t, g, "app.A")
	c := nodeByName(t, g, "app.C")
	parent := g.Reachable([]*Node{a})
	if _, ok := parent[c]; !ok {
		t.Fatalf("C must be reachable from A")
	}
	if got, want := Path(parent, c), "app.A → app.B → app.C"; got != want {
		t.Fatalf("Path = %q, want %q", got, want)
	}
}
