package lint

import (
	"go/ast"
	"go/types"
)

// NakedGoroutine enforces the PR-1 panic-containment policy: a panic on a
// spawned goroutine crashes the whole process, so every `go` statement must
// recover — either directly (a top-level `defer func() { recover() }()` in
// the goroutine body) or through a function reached within two calls that
// does. One call deep covers FLOW's iteration pool (runIter's first
// statement is the recovery defer); two deep covers the daemon's worker
// pool, where the goroutine body is bookkeeping (`defer wg.Done();
// s.worker()`), the worker is a dispatch loop, and the recovery defer lives
// in the per-job runner it calls. Deeper chains are flagged: past two hops a
// reviewer can no longer see the containment from the spawn site. The one
// vetted exception — the metric engine's batched worker pool, whose workers
// run pure array code and re-create no panic surface — carries an
// //htpvet:allow annotation at its `go` statement.
var NakedGoroutine = &Analyzer{
	Name: "nakedgoroutine",
	Doc:  "go statements must recover panics directly or via a function reached within two calls that installs a top-level recovery defer",
	Run:  runNakedGoroutine,
}

// maxRecoverDepth is how many call edges the search follows from the
// goroutine body looking for a function whose top-level defer recovers.
const maxRecoverDepth = 2

func runNakedGoroutine(pass *Pass) {
	// Map package functions and local closures to their bodies so the
	// one-level call check can look through them.
	decls := map[types.Object]*ast.BlockStmt{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					if obj := pass.Info.Defs[n.Name]; obj != nil {
						decls[obj] = n.Body
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok && i < len(n.Lhs) {
						if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
							if obj := objOfIdent(pass.Info, id); obj != nil {
								decls[obj] = lit.Body
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if lit, ok := ast.Unparen(v).(*ast.FuncLit); ok && i < len(n.Names) {
						if obj := pass.Info.Defs[n.Names[i]]; obj != nil {
							decls[obj] = lit.Body
						}
					}
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineRecovers(pass.Info, decls, g.Call) {
				pass.Reportf(g.Go, "goroutine does not recover panics: a panic here kills the process; add a top-level recovery defer (PR-1 containment policy) or annotate a vetted site")
			}
			return true
		})
	}
}

// goroutineRecovers reports whether the spawned call is protected: its body
// has a top-level recovery defer, or the call graph reaches one within
// maxRecoverDepth edges.
func goroutineRecovers(info *types.Info, decls map[types.Object]*ast.BlockStmt, call *ast.CallExpr) bool {
	body := calleeBody(info, decls, call)
	if body == nil {
		return false
	}
	return bodyRecovers(info, decls, body, maxRecoverDepth, map[*ast.BlockStmt]bool{})
}

// bodyRecovers reports whether body installs a top-level recovery defer, or
// — with depth edges still available — some function it calls does. The seen
// set makes mutual recursion terminate (a cycle revisiting a body cannot add
// protection it didn't have the first time).
func bodyRecovers(info *types.Info, decls map[types.Object]*ast.BlockStmt, body *ast.BlockStmt, depth int, seen map[*ast.BlockStmt]bool) bool {
	if body == nil || seen[body] {
		return false
	}
	seen[body] = true
	if deferRecovers(info, decls, body) {
		return true
	}
	if depth == 0 {
		return false
	}
	protected := false
	ast.Inspect(body, func(n ast.Node) bool {
		if protected {
			return false
		}
		inner, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b := calleeBody(info, decls, inner); b != nil && bodyRecovers(info, decls, b, depth-1, seen) {
			protected = true
			return false
		}
		return true
	})
	return protected
}

// calleeBody resolves the body of the function a call invokes: a function
// literal, a package function, or a local closure variable.
func calleeBody(info *types.Info, decls map[types.Object]*ast.BlockStmt, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			return decls[obj]
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return decls[fn]
		}
	}
	return nil
}

// deferRecovers reports whether body has a top-level defer that recovers
// (a deferred literal containing recover, or a deferred call to a function
// whose body contains recover).
func deferRecovers(info *types.Info, decls map[types.Object]*ast.BlockStmt, body *ast.BlockStmt) bool {
	for _, s := range body.List {
		d, ok := s.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if b := calleeBody(info, decls, d.Call); b != nil && containsRecover(info, b) {
			return true
		}
	}
	return false
}

// containsRecover reports whether n calls the recover builtin anywhere.
func containsRecover(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && isBuiltinCall(info, call, "recover") {
			found = true
			return false
		}
		return true
	})
	return found
}
