package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockedCallback enforces PR 4's deferred-dispatch rule: no observer/policy
// callback invocation and no channel send while an engine mutex is held.
// Calling out to arbitrary code under a lock invites deadlock (the callback
// re-enters the engine) and smears the lock's hold time across foreign work;
// the engine must select under the lock, then dispatch after unlocking
// (the onDispatch of a cloud tier's replica, internal/cloud/service.go, is
// the reference shape).
//
// The analyzer tracks sync.Mutex/RWMutex Lock/Unlock pairs per function
// (deferred unlocks hold to function end; an unlock inside an early-return
// branch does not clear the fallthrough path) and, while any lock is held,
// flags: channel sends, calls through function-typed values (fields, locals,
// parameters — the callback shape), and interface method calls whose name
// begins with "On" (the Observer convention). Static calls to named
// functions and methods stay legal: those are the engine's own code.
var LockedCallback = &Analyzer{
	Name: "lockedcallback",
	Doc:  "flag callback invocations and channel sends made while a sync mutex is held (deferred-dispatch rule)",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					lc := &lockChecker{pass: pass}
					lc.walkBody(fd.Body)
				}
			}
		}
	},
}

type lockChecker struct {
	pass *Pass
}

// lockState maps a mutex expression (rendered as source) to true while held.
type lockState map[string]bool

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s lockState) anyHeld() (string, bool) {
	// Deterministic pick for the message: lexicographically smallest key.
	best := ""
	for k, held := range s {
		if held && (best == "" || k < best) {
			best = k
		}
	}
	return best, best != ""
}

// walkBody analyzes one function body, including nested function literals
// (each starting lock-free: a closure built under a lock typically runs
// after it is released; the dispatch site is where the rule applies).
func (lc *lockChecker) walkBody(body *ast.BlockStmt) {
	lc.walkStmts(body.List, make(lockState))
}

// walkStmts interprets a statement list, threading the lock state through
// and returning the fallthrough state.
func (lc *lockChecker) walkStmts(list []ast.Stmt, held lockState) lockState {
	for _, stmt := range list {
		held = lc.walkStmt(stmt, held)
	}
	return held
}

func (lc *lockChecker) walkStmt(stmt ast.Stmt, held lockState) lockState {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, op, ok := lc.mutexOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return held
		}
		lc.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() holds to function end — the state simply stays
		// held. Other deferred calls run at return, outside our window.
		return held
	case *ast.GoStmt:
		// The goroutine escapes the critical section; its body starts
		// lock-free.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lc.walkBody(fl.Body)
		}
		return held
	case *ast.SendStmt:
		if key, ok := held.anyHeld(); ok {
			lc.pass.Reportf(s.Pos(),
				"channel send while %s is held: buffer the value and send after unlocking (deferred-dispatch rule, PR 4)", key)
		}
		lc.scanExpr(s.Chan, held)
		lc.scanExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lc.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			lc.scanExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lc.scanExpr(e, held)
		}
	case *ast.IncDecStmt:
		lc.scanExpr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lc.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.BlockStmt:
		return lc.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = lc.walkStmt(s.Init, held)
		}
		lc.scanExpr(s.Cond, held)
		bodyExit := lc.walkStmts(s.Body.List, held.clone())
		elseExit := held
		if s.Else != nil {
			elseExit = lc.walkStmt(s.Else, held.clone())
		}
		return merge(held, s.Body, bodyExit, s.Else, elseExit)
	case *ast.ForStmt:
		if s.Init != nil {
			held = lc.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			lc.scanExpr(s.Cond, held)
		}
		lc.walkStmts(s.Body.List, held.clone())
		return held
	case *ast.RangeStmt:
		lc.scanExpr(s.X, held)
		lc.walkStmts(s.Body.List, held.clone())
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = lc.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			lc.scanExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				lc.walkStmts(cc.Body, held.clone())
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				lc.walkStmts(cc.Body, held.clone())
			}
		}
		return held
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if cc.Comm != nil {
					lc.walkStmt(cc.Comm, held.clone())
				}
				lc.walkStmts(cc.Body, held.clone())
			}
		}
		return held
	case *ast.LabeledStmt:
		return lc.walkStmt(s.Stmt, held)
	}
	return held
}

// merge computes the fallthrough state after a conditional: branches that
// terminate (return/panic/branch) contribute nothing, so an early-return
// unlock never clears the main path; surviving branches union their locks
// (conservative toward reporting).
func merge(pre lockState, body ast.Stmt, bodyExit lockState, els ast.Stmt, elseExit lockState) lockState {
	out := make(lockState)
	bodyFalls := !terminates(body)
	elseFalls := els == nil || !terminates(els)
	if els == nil {
		// No else: the if may be skipped entirely — pre-state falls through.
		for k, v := range pre {
			if v {
				out[k] = true
			}
		}
	}
	if bodyFalls {
		for k, v := range bodyExit {
			if v {
				out[k] = true
			}
		}
	}
	if elseFalls && els != nil {
		for k, v := range elseExit {
			if v {
				out[k] = true
			}
		}
	}
	if !bodyFalls && els != nil && !elseFalls {
		// Both branches terminate: anything after is unreachable; keep the
		// pre-state so spurious reports cannot arise from it.
		return pre
	}
	return out
}

// terminates reports whether a statement always leaves the enclosing
// function or loop (return, panic, os.Exit-style is not modeled, branch).
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(s.List); n > 0 {
			return terminates(s.List[n-1])
		}
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		return terminates(s.Body) && terminates(s.Else)
	}
	return false
}

// mutexOp recognises x.Lock()/x.RLock()/x.Unlock()/x.RUnlock() on a
// sync.Mutex or sync.RWMutex (embedded included) and returns the lock's
// source rendering as its identity.
func (lc *lockChecker) mutexOp(expr ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := lc.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// scanExpr reports callback-shaped calls inside expr while a lock is held,
// and analyzes nested function literals lock-free.
func (lc *lockChecker) scanExpr(expr ast.Expr, held lockState) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			lc.walkBody(e.Body)
			return false
		case *ast.CallExpr:
			key, anyHeld := held.anyHeld()
			if !anyHeld {
				return true
			}
			switch callee := calleeOf(lc.pass.Info, e).(type) {
			case *types.Var:
				// A call through a function value: field, local or
				// parameter — the callback shape.
				if _, isSig := callee.Type().Underlying().(*types.Signature); isSig {
					lc.pass.Reportf(e.Pos(),
						"callback %q invoked while %s is held: collect it under the lock, dispatch after unlocking (deferred-dispatch rule, PR 4)",
						callee.Name(), key)
				}
			case *types.Func:
				recv := callee.Type().(*types.Signature).Recv()
				if recv == nil {
					return true
				}
				if _, isIface := recv.Type().Underlying().(*types.Interface); isIface && strings.HasPrefix(callee.Name(), "On") {
					lc.pass.Reportf(e.Pos(),
						"observer method %s.%s invoked while %s is held: dispatch observers after unlocking (deferred-dispatch rule, PR 4)",
						types.TypeString(recv.Type(), types.RelativeTo(lc.pass.Pkg)), callee.Name(), key)
				}
			}
		}
		return true
	})
}
