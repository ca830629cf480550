package analysis

// sharedmut: goroutine closures must not write shared state except
// through the designated merge path.
//
// The intra-query fan-out (internal/core's runBatchRounds and friends) keeps
// its determinism proof by construction: every worker writes only its
// own disjoint partition of the result slices, indexed by a
// worker-local counter (children[j], errs[j] = ...). sharedmut makes
// that the only legal shape: inside a `go` closure,
//
//   - writes to package-level variables are flagged (always: they race
//     and break the pure-function worker contract);
//   - writes to captured variables are flagged, including through
//     fields and pointers;
//   - except the merge path: an index write into a captured slice whose
//     index expression involves a closure-local variable — the
//     disjoint-partition idiom (a captured map never qualifies:
//     concurrent map writes race even on disjoint keys);
//   - calls to functions whose WritesShared fact is set are flagged, so
//     the rule is transitive through helpers and across packages;
//   - the snapshot-swap publication path is sanctioned: method calls on
//     sync/atomic values (Store, Swap, CompareAndSwap, Add, ...) are the
//     blessed way to publish shared state from any goroutine, but
//     *assigning over* an atomic value inside a closure is flagged with
//     its own message — it races with every concurrent method call.
//
// `go f(...)` with a named function is judged by f's WritesShared fact.

import (
	"go/ast"
	"go/types"
)

// SharedMut reports shared-state writes inside goroutine closures.
var SharedMut = &Analyzer{
	Name: "sharedmut",
	Doc: "report writes to package-level or captured state inside go-statement closures, " +
		"except indexed writes into captured slices at a closure-local index (the worker " +
		"merge path); transitive through the WritesShared fact",
	Run: runSharedMut,
}

func runSharedMut(pass *Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(node ast.Node) bool {
			g, ok := node.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				checkGoClosure(pass, lit)
			} else if fn := staticCallee(pass.TypesInfo, g.Call); fn != nil {
				if s := pass.Facts.SummaryOf(fn); s != nil && s.WritesShared {
					pass.Reportf(g.Call.Pos(), "goroutine runs %s, which writes shared state (%s)",
						funcDisplay(fn, pass.Pkg), s.SharedWhy)
				}
			}
			return true
		})
	}
	return nil
}

// checkGoClosure applies the write rules to one goroutine body.
func checkGoClosure(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkClosureWrite(pass, lit, lhs)
			}
		case *ast.IncDecStmt:
			checkClosureWrite(pass, lit, s.X)
		case *ast.CallExpr:
			if atomicMethodCall(pass.TypesInfo, s) {
				// Sanctioned: Store/Swap/CompareAndSwap/... on a
				// sync/atomic value is the snapshot-swap publication
				// path; the atomic owns its synchronization.
				return true
			}
			if fn := staticCallee(pass.TypesInfo, s); fn != nil {
				if sum := pass.Facts.SummaryOf(fn); sum != nil && sum.WritesShared {
					pass.Reportf(s.Pos(), "goroutine closure calls %s, which writes shared state (%s)",
						funcDisplay(fn, pass.Pkg), sum.SharedWhy)
				}
			}
		}
		return true
	})
}

// checkClosureWrite classifies one assignment target inside a goroutine
// closure.
func checkClosureWrite(pass *Pass, lit *ast.FuncLit, lhs ast.Expr) {
	info := pass.TypesInfo
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.IsField() {
			return
		}
		if v.Parent() != pass.Pkg.Scope() && !capturedByLit(lit, v) {
			return
		}
		if atomicValueType(info.TypeOf(e)) {
			pass.Reportf(lhs.Pos(),
				"goroutine closure assigns over atomic %s, racing its method calls; publish with Store or Swap", v.Name())
			return
		}
		if v.Parent() == pass.Pkg.Scope() {
			pass.Reportf(lhs.Pos(), "goroutine closure writes package-level variable %s", v.Name())
			return
		}
		pass.Reportf(lhs.Pos(),
			"goroutine closure writes captured variable %s; merge through an indexed slice partition instead", v.Name())
	case *ast.IndexExpr:
		base, baseVar := writeBase(info, e.X)
		if baseVar == nil {
			return
		}
		pkgLevel := baseVar.Parent() == pass.Pkg.Scope()
		if !pkgLevel && !capturedByLit(lit, baseVar) {
			return // closure-local container: free to mutate
		}
		if _, isMap := info.TypeOf(base).Underlying().(*types.Map); isMap {
			pass.Reportf(lhs.Pos(),
				"goroutine closure writes captured map %s: concurrent map writes race even on disjoint keys", baseVar.Name())
			return
		}
		if pkgLevel {
			pass.Reportf(lhs.Pos(), "goroutine closure writes package-level %s", baseVar.Name())
			return
		}
		// The merge path: captured slice, closure-local index.
		if !indexClosureLocal(info, lit, e.Index) {
			pass.Reportf(lhs.Pos(),
				"goroutine closure writes captured %s at an index not derived from closure-local state; "+
					"partition by a worker-local index", baseVar.Name())
		}
	case *ast.SelectorExpr, *ast.StarExpr:
		_, baseVar := writeBase(info, ast.Unparen(lhs))
		if baseVar == nil {
			return
		}
		if baseVar.Parent() != pass.Pkg.Scope() && !capturedByLit(lit, baseVar) {
			return
		}
		if atomicValueType(info.TypeOf(ast.Unparen(lhs))) {
			pass.Reportf(lhs.Pos(),
				"goroutine closure assigns over an atomic through %s, racing its method calls; publish with Store or Swap", baseVar.Name())
			return
		}
		if baseVar.Parent() == pass.Pkg.Scope() {
			pass.Reportf(lhs.Pos(), "goroutine closure writes package-level %s", baseVar.Name())
			return
		}
		pass.Reportf(lhs.Pos(),
			"goroutine closure writes through captured %s; workers must not mutate shared structures", baseVar.Name())
	}
}

// atomicValueType reports whether t is a value type declared in
// sync/atomic (atomic.Pointer[T], atomic.Int64, atomic.Value, ...).
func atomicValueType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// atomicMethodCall reports whether call invokes a method on a
// sync/atomic value — the sanctioned publication path for shared state
// (the snapshot-swap idiom: state.Store(next) from a serialized writer,
// state.Load() from any reader).
func atomicMethodCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return atomicValueType(t)
}

// writeBase peels selectors, indexes, and derefs down to the root
// expression and its variable, when the root is a plain identifier.
func writeBase(info *types.Info, e ast.Expr) (ast.Expr, *types.Var) {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			if v, ok := info.Uses[t].(*types.Var); ok && !v.IsField() {
				return t, v
			}
			return t, nil
		default:
			return e, nil
		}
	}
}

// capturedByLit reports whether v is declared outside the literal —
// i.e. the closure captures it. Package-level variables are handled
// separately by the callers.
func capturedByLit(lit *ast.FuncLit, v *types.Var) bool {
	return v.Pos() < lit.Pos() || v.Pos() >= lit.End()
}

// indexClosureLocal reports whether the index expression involves at
// least one variable local to the closure (the worker-local partition
// index).
func indexClosureLocal(info *types.Info, lit *ast.FuncLit, index ast.Expr) bool {
	local := false
	ast.Inspect(index, func(node ast.Node) bool {
		if local {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if ok && !v.IsField() && !capturedByLit(lit, v) {
			local = true
		}
		return true
	})
	return local
}
