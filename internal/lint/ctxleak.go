package lint

// CtxLeak polices goroutine and context hygiene in the concurrent layers
// (service, load, par): a daemon that serves millions of requests cannot
// afford goroutines that outlive their work or handlers that detach from the
// request's cancellation.
//
// Every `go` statement must satisfy one of:
//
//   - it is joined: a sync.WaitGroup Add call precedes it in the same
//     function, or the spawned body calls Done/Wait on a WaitGroup;
//   - it is cancellable: the spawned body contains a select statement or
//     receives from a Done() channel (context.Context or any shutdown
//     channel exposed as Done());
//   - it is bounded: the spawned body ranges over a channel, terminating
//     when the producer closes it.
//
// For `go f()` and `go x.m()` of a module-declared function the callee's
// body is inspected the same way as a literal.
//
// Separately, an HTTP handler (any function with a *http.Request parameter)
// must thread r.Context() into the pipeline: calls to context.Background or
// context.TODO inside a handler are reported.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "goroutines must be WaitGroup-joined or cancellable; handlers must use r.Context()",
	Packages: []string{
		"internal/service", "internal/service/metrics", "internal/load", "internal/par",
		"internal/cluster",
		// The phased engine spawns one goroutine per worker every period,
		// joined at the period's WaitGroup. The simulator runs on its
		// caller's goroutine; it stays in scope so that a go statement
		// added there is checked too.
		"internal/partition", "internal/runtime", "internal/sim",
	},
	RunModule: runCtxLeak,
}

func runCtxLeak(pass *ModulePass) {
	for _, pkg := range pass.ScopePackages() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkGoStmts(pass, pkg, fd)
				if isHTTPHandler(pkg, fd) {
					checkHandlerContext(pass, pkg, fd)
				}
			}
		}
	}
}

// checkGoStmts validates every go statement in the function body.
func checkGoStmts(pass *ModulePass, pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		// Joined from outside: a WaitGroup Add before the spawn.
		if addPrecedes(pkg, fd.Body, g.Pos()) {
			return true
		}
		// The spawned body itself joins, selects, or drains a channel.
		if body := spawnedBody(pass, pkg, g.Call); body != nil && bodyTerminates(pkg, body) {
			return true
		}
		pass.Reportf(g.Pos(),
			"goroutine is neither joined (WaitGroup/errgroup) nor cancellable (select on ctx.Done()/shutdown channel); it can outlive its work")
		return true
	})
}

// addPrecedes reports whether a sync.WaitGroup Add call appears before pos in
// the enclosing function body.
func addPrecedes(pkg *Package, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() >= pos {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if isWaitGroup(pkg.Info.TypeOf(sel.X)) {
			found = true
		}
		return !found
	})
	return found
}

// spawnedBody resolves the body the go statement runs: a function literal's
// own body, or the declared body of a statically resolved module function.
func spawnedBody(pass *ModulePass, pkg *Package, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if fd := pass.Module.Decl(fn); fd != nil {
				return fd.Decl.Body
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if fd := pass.Module.Decl(fn); fd != nil {
					return fd.Decl.Body
				}
			}
		} else if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if fd := pass.Module.Decl(fn); fd != nil {
				return fd.Decl.Body
			}
		}
	}
	return nil
}

// bodyTerminates reports whether the spawned body contains a terminating or
// joining construct: WaitGroup Done/Wait, a select statement, a receive from
// a Done() channel, or a range over a channel.
func bodyTerminates(pkg *Package, body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			ok = true
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					ok = true
				}
			}
		case *ast.CallExpr:
			if sel, isSel := ast.Unparen(n.Fun).(*ast.SelectorExpr); isSel {
				switch sel.Sel.Name {
				case "Done", "Wait":
					if isWaitGroup(pkg.Info.TypeOf(sel.X)) {
						ok = true
					}
				}
			}
		case *ast.UnaryExpr:
			// <-x.Done() — a context or shutdown channel.
			if n.Op == token.ARROW {
				if call, isCall := ast.Unparen(n.X).(*ast.CallExpr); isCall {
					if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel && sel.Sel.Name == "Done" {
						ok = true
					}
				}
			}
		}
		return !ok
	})
	return ok
}

// isWaitGroup matches sync.WaitGroup, by value or pointer.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isHTTPHandler reports whether the function takes a *net/http.Request.
func isHTTPHandler(pkg *Package, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		t := pkg.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			continue
		}
		n, ok := p.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request" {
			return true
		}
	}
	return false
}

// checkHandlerContext reports context.Background/TODO inside a handler.
func checkHandlerContext(pass *ModulePass, pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if name := fn.Name(); name == "Background" || name == "TODO" {
			pass.Reportf(sel.Pos(),
				"HTTP handler detaches from the request: thread r.Context() into pipeline calls instead of context.%s", name)
		}
		return true
	})
}
