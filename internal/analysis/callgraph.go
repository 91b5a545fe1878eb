package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program static call graph the transitive rules
// (determinism, goroutine-safety, hot-path-alloc, config-partition) share.
// Nodes are module functions — declared functions/methods plus function
// literals — and edges over-approximate "may call":
//
//   - direct calls (pkg.F, methods on concrete receivers) resolve through
//     go/types to the callee's *types.Func;
//   - interface method calls fan out to the matching method of every module
//     named type whose method set implements the interface (method-set
//     matching);
//   - calls through function values (variables, struct fields, parameters)
//     fan out to every address-taken module function or literal with an
//     identical signature — conservative, so a sim-path callback can never
//     silently launder a violation;
//   - a function that creates a closure gets an edge to the literal, so
//     comparators handed to the standard library (sort.Slice and friends,
//     whose bodies we never see) still count as reachable from their creator.
//
// Calls into the standard library are leaves: the primitive checks (time.Now,
// math/rand globals, sync usage) fire at the module-side call site, so no
// stdlib bodies are needed.

// Node is one function in the call graph: either a declared function/method
// (Fn/Decl set) or a function literal (Lit set, Fn nil).
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Pkg is the defining package.
	Pkg *Package
	// Encl is the nearest enclosing declared-function node for literals
	// (nil for declared functions).
	Encl *Node
}

// Name renders the node for diagnostics: "core.(*Core).retire" for methods,
// "graph.Kronecker" for functions, "func literal in sim.Run" for closures.
func (n *Node) Name() string {
	if n.Lit != nil {
		if n.Encl != nil {
			return "func literal in " + n.Encl.Name()
		}
		return "func literal"
	}
	if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", n.Fn.Pkg().Name(), named.Obj().Name(), n.Fn.Name())
		}
	}
	return n.Fn.Pkg().Name() + "." + n.Fn.Name()
}

// Pos is the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return n.Decl.Pos()
}

// Body returns the node's own body. Nested function literals inside it are
// separate nodes; use InspectOwn to walk a body without descending into them.
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// InspectOwn walks the node's body, visiting but not descending into nested
// function literals (each is its own node, so violations inside them are
// attributed there, once).
func (n *Node) InspectOwn(fn func(ast.Node) bool) {
	if n.Body() == nil {
		return
	}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			fn(x)
			return false
		}
		return fn(x)
	})
}

// CallGraph is the module's static call graph.
type CallGraph struct {
	prog *Program
	// Nodes in deterministic order: declared functions sorted by position,
	// then literals by position.
	Nodes []*Node

	byFn    map[*types.Func]*Node
	byLit   map[*ast.FuncLit]*Node
	callees map[*Node][]*Node

	// addrTaken are functions whose value escapes (assigned, passed,
	// returned, stored) — the candidate targets of function-value calls.
	addrTaken map[*Node]bool

	// implCache memoizes interface-method resolution.
	implCache map[*types.Func][]*Node
	// namedTypes is every module named (non-interface) type, for method-set
	// matching.
	namedTypes []*types.Named
}

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// Callees returns n's outgoing edges in deterministic order.
func (g *CallGraph) Callees(n *Node) []*Node { return g.callees[n] }

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		prog:      prog,
		byFn:      make(map[*types.Func]*Node),
		byLit:     make(map[*ast.FuncLit]*Node),
		callees:   make(map[*Node][]*Node),
		addrTaken: make(map[*Node]bool),
		implCache: make(map[*types.Func][]*Node),
	}

	// Pass 0: index declared functions and module named types.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg}
				g.byFn[fn] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}

	// Pass 1: per-function body walks — literal nodes, edges, address-taken.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.walkBody(g.byFn[fn], fd.Body)
			}
		}
	}

	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Pos() < g.Nodes[j].Pos() })
	for n, out := range g.callees {
		sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
		g.callees[n] = dedupNodes(out)
	}
	return g
}

// walkBody records edges and address-taken functions for one node's own body,
// creating child nodes (with an enclosing edge) for each function literal.
func (g *CallGraph) walkBody(n *Node, body *ast.BlockStmt) {
	pkg := n.Pkg
	// callees marks expressions in call position so the address-taken pass
	// below can skip them.
	calleeExprs := make(map[ast.Expr]bool)

	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if x == n.Lit {
				return true
			}
			child := &Node{Lit: x, Pkg: pkg, Encl: enclDecl(n)}
			g.byLit[x] = child
			g.Nodes = append(g.Nodes, child)
			// Creating a closure may cause its execution (stored callbacks,
			// stdlib comparators), so the creator gets a may-call edge.
			g.addEdge(n, child)
			g.addrTaken[child] = true
			g.walkBody(child, x.Body)
			return false // the child walk owns the literal's body
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			calleeExprs[fun] = true
			g.callEdges(n, pkg, fun)
		}
		return true
	})

	// Address-taken pass: any reference to a declared function outside call
	// position makes it a candidate target for function-value calls. Sel
	// identifiers are claimed by their parent SelectorExpr so a plain method
	// call does not mark the method address-taken.
	selIdents := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		var obj types.Object
		switch x := x.(type) {
		case *ast.SelectorExpr:
			selIdents[x.Sel] = true
			if calleeExprs[x] {
				return true
			}
			obj = pkg.Info.Uses[x.Sel]
		case *ast.Ident:
			if selIdents[x] || calleeExprs[x] {
				return true
			}
			obj = pkg.Info.Uses[x]
		default:
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if target := g.byFn[fn]; target != nil {
				g.addrTaken[target] = true
			}
		}
		return true
	})
}

// enclDecl resolves the nearest enclosing declared-function node.
func enclDecl(n *Node) *Node {
	for n != nil && n.Lit != nil {
		n = n.Encl
	}
	return n
}

// callEdges resolves one call's callee expression into graph edges.
func (g *CallGraph) callEdges(from *Node, pkg *Package, fun ast.Expr) {
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			if target := g.byFn[obj]; target != nil {
				g.addEdge(from, target)
			}
			return
		case *types.Builtin, *types.TypeName:
			return // builtin or conversion
		case *types.Var:
			g.dynamicEdges(from, obj.Type())
			return
		}
		return
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				fn := sel.Obj().(*types.Func)
				recv := sel.Recv()
				if types.IsInterface(recv) {
					g.addEdges(from, g.implementations(fn, recv))
				} else if target := g.byFn[fn]; target != nil {
					g.addEdge(from, target)
				}
			case types.FieldVal:
				// Call through a function-typed struct field.
				g.dynamicEdges(from, sel.Type())
			}
			return
		}
		// Package-qualified reference (pkg.F) or conversion.
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			if target := g.byFn[obj]; target != nil {
				g.addEdge(from, target)
			}
		case *types.Var:
			g.dynamicEdges(from, obj.Type())
		}
		return
	case *ast.FuncLit:
		if target := g.byLit[fun]; target != nil {
			g.addEdge(from, target)
		}
		return
	default:
		// Call of a call result, index expression, type assertion, ... —
		// a dynamic call through whatever function type it has.
		if tv, ok := pkg.Info.Types[fun]; ok {
			if tv.IsType() {
				return // conversion
			}
			g.dynamicEdges(from, tv.Type)
		}
	}
}

// dynamicEdges adds conservative edges for a call through a function value:
// every address-taken module function or literal with an identical signature.
func (g *CallGraph) dynamicEdges(from *Node, t types.Type) {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for _, cand := range g.Nodes {
		if !g.addrTaken[cand] {
			continue
		}
		var csig *types.Signature
		if cand.Fn != nil {
			csig = cand.Fn.Type().(*types.Signature)
		} else if tv, ok := cand.Pkg.Info.Types[cand.Lit]; ok {
			csig, _ = tv.Type.Underlying().(*types.Signature)
		}
		if csig != nil && types.Identical(stripRecv(csig), stripRecv(sig)) {
			g.addEdge(from, cand)
		}
	}
}

// stripRecv normalizes a method signature to its method-value shape so that
// x.M passed as a callback matches the field's function type.
func stripRecv(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}

// implementations resolves an interface method to the matching methods of
// every module named type implementing the interface.
func (g *CallGraph) implementations(ifaceMethod *types.Func, recv types.Type) []*Node {
	if cached, ok := g.implCache[ifaceMethod]; ok {
		return cached
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, named := range g.namedTypes {
		ptr := types.NewPointer(named)
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(ptr, iface):
			impl = ptr
		default:
			continue
		}
		sel := types.NewMethodSet(impl).Lookup(ifaceMethod.Pkg(), ifaceMethod.Name())
		if sel == nil {
			continue
		}
		if target := g.byFn[sel.Obj().(*types.Func)]; target != nil {
			out = append(out, target)
		}
	}
	g.implCache[ifaceMethod] = out
	return out
}

func (g *CallGraph) addEdge(from, to *Node) { g.callees[from] = append(g.callees[from], to) }

func (g *CallGraph) addEdges(from *Node, to []*Node) {
	for _, t := range to {
		g.addEdge(from, t)
	}
}

func dedupNodes(in []*Node) []*Node {
	out := in[:0]
	var prev *Node
	for _, n := range in {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

// Reachable runs BFS from the given roots and returns, for every reachable
// node, its BFS parent (roots map to nil). The traversal order is
// deterministic: roots in the given order, edges in position order.
func (g *CallGraph) Reachable(roots []*Node) map[*Node]*Node {
	parent := make(map[*Node]*Node)
	var queue []*Node
	for _, r := range roots {
		if _, ok := parent[r]; ok {
			continue
		}
		parent[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range g.Callees(n) {
			if _, ok := parent[c]; ok {
				continue
			}
			parent[c] = n
			queue = append(queue, c)
		}
	}
	return parent
}

// Path renders the BFS chain from a root down to n, e.g.
// "sim.Run → workloads.Build → graph.Kronecker".
func Path(parent map[*Node]*Node, n *Node) string {
	var names []string
	for cur := n; cur != nil; cur = parent[cur] {
		names = append(names, cur.Name())
		if parent[cur] == nil {
			break
		}
	}
	// Reverse: root first.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	var out string
	for i, s := range names {
		if i > 0 {
			out += " → "
		}
		out += s
	}
	return out
}

// funcDirective reports whether a function declaration's doc comment carries
// the given //brlint:<name> directive, e.g. //brlint:hotpath.
func funcDirective(fd *ast.FuncDecl, directive string) (string, bool) {
	if fd.Doc == nil {
		return "", false
	}
	for _, c := range fd.Doc.List {
		if rest, ok := cutDirective(c.Text, directive); ok {
			return rest, true
		}
	}
	return "", false
}

// cutDirective matches "//brlint:<directive>" optionally followed by
// whitespace-separated arguments, returning the trimmed argument string.
func cutDirective(text, directive string) (string, bool) {
	prefix := "//brlint:" + directive
	if text == prefix {
		return "", true
	}
	if len(text) > len(prefix) && text[:len(prefix)] == prefix && (text[len(prefix)] == ' ' || text[len(prefix)] == '\t') {
		return strings.TrimSpace(text[len(prefix):]), true
	}
	return "", false
}
