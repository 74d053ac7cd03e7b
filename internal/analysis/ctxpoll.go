package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPoll enforces the every-4k-derivations cancellation rule (PR 4) in
// internal/exec and internal/core: a streaming loop over derivations or
// candidates must poll exec.Options.Interrupt / ctx.Done, or a cancelled
// request keeps enumerating an unbounded join long after its client has
// gone.
//
// A loop is considered a derivation/candidate stream if it pulls from a
// cursor (calls a method named Next or advance in its condition or
// body) or counts derivations (writes a Derivations field). Such a loop
// must contain one of:
//
//   - a reference to an Interrupt option or a ctx.Done()/ctx.Err() call
//     (a direct poll);
//   - a select statement (channel-driven loops are cancelled by closing
//     the channel);
//   - a call through a func-typed variable, parameter, or field (the
//     emit-callback shape: delegating each element to a caller-supplied
//     callback transfers the polling obligation to the caller).
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "streaming derivation/candidate loops must poll Interrupt/ctx.Done",
	Run:  runCtxPoll,
}

var ctxPollPkgs = []string{"internal/exec", "internal/core"}

func runCtxPoll(pass *Pass) error {
	if !pathHasAny(pass.Pkg.Path(), ctxPollPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var cond ast.Expr
			switch n := n.(type) {
			case *ast.ForStmt:
				body, cond = n.Body, n.Cond
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			if !pass.isStreamLoop(cond, body) {
				return true
			}
			if !pass.hasPollPoint(body) {
				pass.Reportf(n.Pos(), "derivation/candidate loop never polls Options.Interrupt or ctx.Done: cancelled requests keep enumerating; poll every ~4k iterations (see exec.Aggregate)")
			}
			return true
		})
	}
	return nil
}

// isStreamLoop reports whether the loop iterates a derivation or
// candidate stream: a cursor pull (.Next() / .advance()) in the
// condition or body, or a write to a Derivations counter.
func (p *Pass) isStreamLoop(cond ast.Expr, body *ast.BlockStmt) bool {
	stream := false
	check := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested func is its caller's loop, not this one
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if name := sel.Sel.Name; name == "Next" || name == "advance" || name == "Advance" {
					stream = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Derivations" {
				stream = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Derivations" {
					stream = true
				}
			}
		}
		return !stream
	}
	if cond != nil {
		ast.Inspect(cond, check)
	}
	ast.Inspect(body, check)
	return stream
}

// hasPollPoint reports whether the loop body contains a cancellation
// poll or delegates elements to a caller-supplied callback.
func (p *Pass) hasPollPoint(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "interrupt") {
				found = true
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Err" {
					if p.isContext(fun.X) {
						found = true
					}
				}
				// Calling a func-typed field (oy.yield, j.emit) delegates.
				if selTypeIsFunc(p, fun) {
					found = true
				}
			case *ast.Ident:
				// Calling a func-typed variable or parameter (emit, yield)
				// delegates the polling obligation to its provider.
				if obj, ok := p.TypesInfo.Uses[fun].(*types.Var); ok {
					if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// isContext reports whether e has type context.Context.
func (p *Pass) isContext(e ast.Expr) bool {
	t := p.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// selTypeIsFunc reports whether sel selects a func-typed (non-method)
// field or variable.
func selTypeIsFunc(p *Pass, sel *ast.SelectorExpr) bool {
	s, ok := p.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	_, isSig := s.Type().Underlying().(*types.Signature)
	return isSig
}
