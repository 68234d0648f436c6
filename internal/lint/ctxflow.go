package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the anytime core's cancellation contract: a function
// that accepts a context.Context must actually thread it. Concretely, in
// any function with a ctx parameter (including closures inside it),
// calling context.Background or context.TODO is flagged — detaching from
// the caller's context disables cancellation for everything downstream.
// The deliberate detach on the salvage path (a bounded, cheap construction
// that must complete to turn sunk work into a best-so-far candidate)
// carries an //htpvet:allow annotation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions accepting a context must not detach via Background/TODO",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if !hasCtxParam(obj.Type().(*types.Signature)) {
				continue
			}
			checkCtxBody(pass, fd.Body)
		}
	}
}

func hasCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func checkCtxBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
			pass.Reportf(call.Pos(), "context.%s inside a function that already receives a ctx detaches cancellation; thread the caller's ctx (or annotate a deliberate detach)", fn.Name())
		}
		return true
	})
}
