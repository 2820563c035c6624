// errflow: the concurrency layer's error contract. Every goroutine
// launched in internal/kernel, internal/decode and internal/pipeline
// must route failures back to a joiner — the worker pool's lowest-index
// error slot, a buffered error channel, or an error slice indexed by
// task. The analyzer rejects the ways that contract
// has historically been broken: `go f()` where f returns an error
// nobody can see, `_ =` discards and bare call statements that drop an
// error inside a goroutine, and naked panics in goroutine bodies that
// no recovery wrapper converts into a task error.

package lint

import (
	"go/ast"
	"go/types"
)

// ErrFlow is the goroutine error-routing analyzer.
var ErrFlow = &Analyzer{
	Name:  "errflow",
	Doc:   "goroutines in the concurrency packages must route errors to a joiner; no discards, no naked panics",
	Match: errFlowMatch,
	Run:   runErrFlow,
}

// errFlowScope is the set of packages (by final path element) whose
// goroutines carry the pool's error contract.
var errFlowScope = map[string]bool{"kernel": true, "decode": true, "pipeline": true}

func errFlowMatch(pkgPath string) bool { return errFlowScope[pathBase(pkgPath)] }

func runErrFlow(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, gs)
			return true
		})
	}
}

func checkGoStmt(pass *Pass, gs *ast.GoStmt) {
	// `go f(...)` on a function with error results: the results are
	// irretrievably discarded.
	if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		checkGoroutineBody(pass, fl)
		return
	}
	if sig := callSignature(pass.Info, gs.Call); sig != nil && signatureReturnsError(sig) {
		name := "function"
		if fn := calleeFunc(pass.Info, gs.Call); fn != nil {
			name = fn.Name()
		}
		pass.Reportf(gs.Pos(), "go statement discards the error result of %s; wrap it and route the error into a channel or error slot", name)
	}
}

// checkGoroutineBody walks a go-launched function literal for dropped
// errors and unrecovered panics.
func checkGoroutineBody(pass *Pass, fl *ast.FuncLit) {
	recovered := bodyHasRecover(pass, fl.Body)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested closures are not themselves goroutine bodies
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != "_" {
					continue
				}
				// _ = expr with a single error-typed RHS, or the error
				// position of a multi-value call.
				if errorValueAt(pass.Info, n, i) {
					pass.Reportf(n.Pos(), "goroutine discards an error with _ =; route it into a channel or error slot")
					break
				}
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if sig := callSignature(pass.Info, call); sig != nil && signatureReturnsError(sig) {
					name := "call"
					if fn := calleeFunc(pass.Info, call); fn != nil {
						name = fn.Name()
					}
					pass.Reportf(n.Pos(), "goroutine drops the error result of %s; route it into a channel or error slot", name)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" && !recovered {
					pass.Reportf(n.Pos(), "naked panic in a goroutine; run the work through the pool's recovery wrapper (kernel.Workers) or recover and route the error")
				}
			}
		}
		return true
	})
}

// bodyHasRecover reports whether the body defers a function that calls
// recover(), i.e. carries its own panic-to-error wrapper.
func bodyHasRecover(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return !found
		}
		ast.Inspect(ds.Call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
					found = true
					return false
				}
			}
			return !found
		})
		return !found
	})
	return found
}

// signatureReturnsError reports whether any result of sig is an error.
func signatureReturnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// errorValueAt reports whether position i of the assignment's RHS
// produces an error value.
func errorValueAt(info *types.Info, n *ast.AssignStmt, i int) bool {
	if len(n.Rhs) == len(n.Lhs) {
		return isErrorType(info.Types[n.Rhs[i]].Type)
	}
	// Multi-value: one call on the RHS; find result i.
	if len(n.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok && i < tuple.Len() {
		return isErrorType(tuple.At(i).Type())
	}
	return false
}
