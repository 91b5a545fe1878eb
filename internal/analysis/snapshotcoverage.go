package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// RuleSnapshotCoverage is the snapshot-coverage rule name.
const RuleSnapshotCoverage = "snapshot-coverage"

// SnapshotCoverage guards the warmup fork: for every struct type with a
// copy method — CopyFrom taking a pointer to its own type, which a fork
// from a shared warmup calls to carry the warm component's state into a
// fresh one — each exported field, and each field mutated anywhere on the
// simulation path (directly or through call-graph-reachable helpers), must
// be referenced in the body of that method. Adding a mutable field to a
// component without copying it would otherwise silently produce forks that
// diverge from straight-through runs; intentionally-uncopied fields
// (scratch, free pools, wiring) are suppressed in place with
// //brlint:allow snapshot-coverage.
func SnapshotCoverage() *Analyzer {
	return &Analyzer{
		Name: RuleSnapshotCoverage,
		Doc:  "fields of structs with a CopyFrom method that are exported or mutated on the sim path must be referenced by it",
		Run:  runSnapshotCoverage,
	}
}

func runSnapshotCoverage(prog *Program) []Diagnostic {
	mutated := simPathMutatedFields(prog)
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pathContainsElem(pkg.Path, "internal") {
			continue
		}
		diags = append(diags, snapshotCoveragePkg(prog, pkg, mutated)...)
	}
	return diags
}

// simPathMutatedFields collects every struct field assigned, incremented or
// address-taken (explicitly, or by a pointer-receiver method call) inside a
// function on (or call-graph-reachable from) the simulation path. These are
// the fields whose values can differ between a freshly built component and
// a warm one.
func simPathMutatedFields(prog *Program) map[*types.Var]bool {
	g := prog.CallGraph()
	reach := g.Reachable(simPathRoots(g))
	mutated := make(map[*types.Var]bool)
	record := func(pkg *Package, expr ast.Expr) {
		// Peel index/deref/paren layers: x.F[i] = v and *x.F = v both mutate
		// state held through field F.
		for {
			switch e := expr.(type) {
			case *ast.IndexExpr:
				expr = e.X
			case *ast.StarExpr:
				expr = e.X
			case *ast.ParenExpr:
				expr = e.X
			default:
				sel, ok := expr.(*ast.SelectorExpr)
				if !ok {
					return
				}
				selection, ok := pkg.Info.Selections[sel]
				if !ok || selection.Kind() != types.FieldVal {
					return
				}
				if f, ok := selection.Obj().(*types.Var); ok {
					mutated[f] = true
				}
				return
			}
		}
	}
	for _, n := range g.Nodes {
		if _, ok := reach[n]; !ok {
			continue
		}
		node := n
		n.InspectOwn(func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					record(node.Pkg, lhs)
				}
			case *ast.IncDecStmt:
				record(node.Pkg, x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					record(node.Pkg, x.X)
				}
			case *ast.CallExpr:
				// x.F.M() with a pointer-receiver M takes &x.F implicitly,
				// as a counter's Inc does.
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && takesImplicitAddr(node.Pkg, sel) {
					record(node.Pkg, sel.X)
				}
			}
			return true
		})
	}
	return mutated
}

// takesImplicitAddr reports whether the method call sel() passes the
// address of a non-pointer operand to a pointer receiver.
func takesImplicitAddr(pkg *Package, sel *ast.SelectorExpr) bool {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
	_, ptrOperand := pkg.Info.TypeOf(sel.X).Underlying().(*types.Pointer)
	return ptrRecv && !ptrOperand
}

func snapshotCoveragePkg(prog *Program, pkg *Package, mutated map[*types.Var]bool) []Diagnostic {
	// copyBodies maps each type with a copy method to that method's body.
	copyBodies := make(map[*types.Named]*ast.BlockStmt)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || fd.Name.Name != "CopyFrom" {
				continue
			}
			if named := receiverNamed(pkg, fd); named != nil && copiesOwnType(pkg, fd, named) {
				copyBodies[named] = fd.Body
			}
		}
	}

	var diags []Diagnostic
	// Deterministic order: walk the package scope, not the map.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		body, ok := copyBodies[named]
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		referenced := fieldsReferenced(pkg, named, body)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if referenced[f.Name()] {
				continue
			}
			switch {
			case f.Exported():
				diags = append(diags, Diagnostic{
					Pos:  prog.Position(f.Pos()),
					Rule: RuleSnapshotCoverage,
					Message: fmt.Sprintf("%s.%s has a copy method but its exported field %s is never referenced by CopyFrom; copy it or suppress with //brlint:allow %s",
						pkg.Types.Name(), named.Obj().Name(), f.Name(), RuleSnapshotCoverage),
				})
			case mutated[f]:
				diags = append(diags, Diagnostic{
					Pos:  prog.Position(f.Pos()),
					Rule: RuleSnapshotCoverage,
					Message: fmt.Sprintf("%s.%s has a copy method but its field %s, mutated on the sim path, is never referenced by CopyFrom; copy it or suppress with //brlint:allow %s",
						pkg.Types.Name(), named.Obj().Name(), f.Name(), RuleSnapshotCoverage),
				})
			}
		}
	}
	return diags
}

// receiverNamed resolves a method declaration's receiver to its named type.
func receiverNamed(pkg *Package, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	tv, ok := pkg.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// copiesOwnType reports whether a CopyFrom method has the copy-method
// shape: exactly one parameter, a pointer to the receiver's own type.
func copiesOwnType(pkg *Package, fd *ast.FuncDecl, named *types.Named) bool {
	obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	return ok && types.Identical(ptr.Elem(), named)
}

// fieldsReferenced collects every field of named selected anywhere in the
// copy method's body, through any variable (the receiver or the source).
func fieldsReferenced(pkg *Package, named *types.Named, body *ast.BlockStmt) map[string]bool {
	referenced := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pkg.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		recv := selection.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if types.Identical(recv, named) {
			referenced[sel.Sel.Name] = true
		}
		return true
	})
	return referenced
}
