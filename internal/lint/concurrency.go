package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared call-graph / lock-tracking substrate under the
// three concurrency analyzers (lockorder, goroleak, guardedstate). It models
// lock identity at two granularities — a lockClass names a mutex declaration
// ("serve.member.mu", "experiments.sharedMu"), a lockRef pins a concrete
// instance (root object + selector path) — and provides a flow-sensitive
// must-hold walker over function bodies: at every acquire, call, field
// access, and go statement it reports the set of locks provably held on
// every path reaching that point (intersection at merges, so a lock held on
// only one branch does not count).

// lockRef identifies a mutex instance: the declaration-level class plus,
// when the expression is a plain ident/selector chain, the chain's root
// object and dotted field path. root is nil when the instance cannot be
// pinned (index expressions, call results) — class-level checks still apply,
// instance-level ones (double-lock) do not.
type lockRef struct {
	class string
	root  types.Object
	path  string
}

// sameInstance reports whether two refs provably name the same mutex.
func (r lockRef) sameInstance(o lockRef) bool {
	return r.class == o.class && r.root != nil && r.root == o.root && r.path == o.path
}

// lockOp is one classified Lock/Unlock-family call.
type lockOp struct {
	ref     lockRef
	acquire bool
	pos     token.Pos
}

// isSyncLocker reports whether t (after pointer stripping) is sync.Mutex or
// sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	t = derefType(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// refOfExpr resolves a plain ident/selector chain to (root object, dotted
// path). `m.mu` rooted at param m yields (m, "mu"); a chain through an index
// or call is not pinnable and returns ok=false.
func refOfExpr(pass *Pass, x ast.Expr) (types.Object, string, bool) {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[e]
		if obj == nil {
			obj = pass.Info.Defs[e]
		}
		if obj == nil {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		root, p, ok := refOfExpr(pass, e.X)
		if !ok {
			return nil, "", false
		}
		if p != "" {
			p += "."
		}
		return root, p + e.Sel.Name, true
	case *ast.StarExpr:
		return refOfExpr(pass, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return refOfExpr(pass, e.X)
		}
	}
	return nil, "", false
}

// classOfMutexExpr names the declaration a mutex expression refers to:
// a struct field → "pkg.Type.field", a package-level var → "pkg.var", a
// function-local var → "pkg.owner.var". owner is the enclosing function's
// name, used only for locals.
func classOfMutexExpr(pass *Pass, x ast.Expr, owner string) (lockRef, bool) {
	x = ast.Unparen(x)
	if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
		x = ast.Unparen(u.X)
	}
	switch e := x.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[e]
		if obj == nil {
			obj = pass.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return lockRef{}, false
		}
		base := pkgBase(pass.Pkg.Path())
		if v.Pkg() != nil {
			base = pkgBase(v.Pkg().Path())
		}
		class := base + "." + v.Name()
		if v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
			class = base + "." + owner + "." + v.Name()
		}
		return lockRef{class: class, root: v}, true
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			field := sel.Obj()
			recv := derefType(sel.Recv())
			named, ok := recv.(*types.Named)
			if !ok || field.Pkg() == nil {
				return lockRef{}, false
			}
			class := pkgBase(field.Pkg().Path()) + "." + named.Obj().Name() + "." + field.Name()
			root, path, pinned := refOfExpr(pass, e)
			if !pinned {
				root, path = nil, ""
			}
			return lockRef{class: class, root: root, path: path}, true
		}
		// Package-qualified var: other.Mu
		if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lockRef{class: pkgBase(v.Pkg().Path()) + "." + v.Name(), root: v}, true
		}
	}
	return lockRef{}, false
}

// classifyLockCall recognizes X.Lock/RLock/TryLock (acquire) and
// X.Unlock/RUnlock (release) where the method resolves to sync.Mutex or
// sync.RWMutex — including through an embedded mutex, where the class is
// the embedding type's promoted field.
func classifyLockCall(pass *Pass, call *ast.CallExpr, owner string) (lockOp, bool) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var acquire bool
	switch fun.Sel.Name {
	case "Lock", "RLock", "TryLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockOp{}, false
	}
	sel, ok := pass.Info.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return lockOp{}, false
	}
	m, ok := sel.Obj().(*types.Func)
	if !ok || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	xt := derefType(sel.Recv())
	if named, ok := xt.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
		// Promoted method: t.Lock() on a type embedding the mutex. Class is
		// the embedded-field chain on the named type.
		parts := []string{pkgBase(named.Obj().Pkg().Path()), named.Obj().Name()}
		cur := named.Underlying()
		idx := sel.Index()
		for _, i := range idx[:len(idx)-1] {
			st, ok := cur.(*types.Struct)
			if !ok || i >= st.NumFields() {
				return lockOp{}, false
			}
			f := st.Field(i)
			parts = append(parts, f.Name())
			cur = derefType(f.Type()).Underlying()
		}
		root, path, pinned := refOfExpr(pass, fun.X)
		if !pinned {
			root, path = nil, ""
		}
		return lockOp{
			ref:     lockRef{class: strings.Join(parts, "."), root: root, path: path},
			acquire: acquire,
			pos:     call.Pos(),
		}, true
	}
	ref, ok := classOfMutexExpr(pass, fun.X, owner)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{ref: ref, acquire: acquire, pos: call.Pos()}, true
}

// ---- must-held set ---------------------------------------------------------

func heldClone(h []lockRef) []lockRef {
	return append([]lockRef(nil), h...)
}

func heldHasClass(h []lockRef, class string) bool {
	for _, r := range h {
		if r.class == class {
			return true
		}
	}
	return false
}

func heldHasInstance(h []lockRef, ref lockRef) bool {
	for _, r := range h {
		if r.sameInstance(ref) {
			return true
		}
	}
	return false
}

func heldAdd(h []lockRef, ref lockRef) []lockRef {
	if heldHasInstance(h, ref) {
		return h
	}
	return append(h, ref)
}

// heldRemove drops the ref released by an unlock: the same instance when
// pinnable, otherwise the most recent ref of the class.
func heldRemove(h []lockRef, ref lockRef) []lockRef {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].sameInstance(ref) || (ref.root == nil && h[i].class == ref.class) {
			return append(h[:i:i], h[i+1:]...)
		}
	}
	// Not instance-matched: drop the most recent same-class ref if any.
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].class == ref.class {
			return append(h[:i:i], h[i+1:]...)
		}
	}
	return h
}

// heldIntersect keeps the refs of a that also appear (class+root+path) in b.
func heldIntersect(a, b []lockRef) []lockRef {
	var out []lockRef
	for _, r := range a {
		for _, o := range b {
			if r.class == o.class && r.root == o.root && r.path == o.path {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// ---- flow-sensitive walker -------------------------------------------------

// heldWalker drives a must-hold walk over one function body. Callbacks see
// the held set at the event's program point. Goroutine bodies, deferred
// closures, and escaping function literals are walked as fresh roots with an
// empty held set — locks never transfer across a goroutine boundary, and a
// deferred body runs at an unknown point.
type heldWalker struct {
	pass      *Pass
	owner     string // enclosing function name, for local-var lock classes
	onAcquire func(op lockOp, held []lockRef)
	onRelease func(op lockOp, held []lockRef)
	onCall    func(call *ast.CallExpr, held []lockRef)
	onAccess  func(sel *ast.SelectorExpr, held []lockRef)
	onSpawn   func(g *ast.GoStmt, held []lockRef)
}

func (w *heldWalker) walkFunc(body *ast.BlockStmt, entry []lockRef) {
	held := heldClone(entry)
	w.walkList(body.List, &held)
}

// walkList walks statements in order; returns false when control provably
// cannot fall off the end (return/branch terminated).
func (w *heldWalker) walkList(list []ast.Stmt, held *[]lockRef) bool {
	for _, s := range list {
		if !w.walkStmt(s, held) {
			return false
		}
	}
	return true
}

func (w *heldWalker) walkStmt(s ast.Stmt, held *[]lockRef) bool {
	switch s := s.(type) {
	case nil:
		return true
	case *ast.BlockStmt:
		return w.walkList(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.ExprStmt:
		w.walkExpr(s.X, held)
		return !isPanicCall(w.pass, s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e, held)
		}
		return true
	case *ast.IncDecStmt:
		w.walkExpr(s.X, held)
		return true
	case *ast.SendStmt:
		w.walkExpr(s.Chan, held)
		w.walkExpr(s.Value, held)
		return true
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, held)
					}
				}
			}
		}
		return true
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e, held)
		}
		return false
	case *ast.BranchStmt:
		return s.Tok == token.FALLTHROUGH
	case *ast.DeferStmt:
		return w.walkDefer(s, held)
	case *ast.GoStmt:
		if w.onSpawn != nil {
			w.onSpawn(s, *held)
		}
		for _, a := range s.Call.Args {
			w.walkExpr(a, held)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			var empty []lockRef
			w.walkList(lit.Body.List, &empty)
		}
		return true
	case *ast.IfStmt:
		w.walkStmt(s.Init, held)
		w.walkExpr(s.Cond, held)
		thenHeld := heldClone(*held)
		tCont := w.walkStmt(s.Body, &thenHeld)
		elseHeld := heldClone(*held)
		eCont := true
		if s.Else != nil {
			eCont = w.walkStmt(s.Else, &elseHeld)
		}
		switch {
		case tCont && eCont:
			*held = heldIntersect(thenHeld, elseHeld)
		case tCont:
			*held = thenHeld
		case eCont:
			*held = elseHeld
		default:
			*held = nil
		}
		return tCont || eCont
	case *ast.ForStmt:
		w.walkStmt(s.Init, held)
		if s.Cond != nil {
			w.walkExpr(s.Cond, held)
		}
		bodyHeld := heldClone(*held)
		if w.walkStmt(s.Body, &bodyHeld) {
			w.walkStmt(s.Post, &bodyHeld)
		}
		if s.Cond == nil {
			// `for {}`: exits only via break; held after the loop is the
			// body-out intersection alone, but break points are unmodeled —
			// use the conservative intersection with entry.
			*held = heldIntersect(*held, bodyHeld)
			return true
		}
		*held = heldIntersect(*held, bodyHeld)
		return true
	case *ast.RangeStmt:
		w.walkExpr(s.X, held)
		bodyHeld := heldClone(*held)
		w.walkStmt(s.Body, &bodyHeld)
		*held = heldIntersect(*held, bodyHeld)
		return true
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, held)
		if s.Tag != nil {
			w.walkExpr(s.Tag, held)
		}
		return w.walkCases(s.Body, held, true)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, held)
		w.walkStmt(s.Assign, held)
		return w.walkCases(s.Body, held, true)
	case *ast.SelectStmt:
		return w.walkCases(s.Body, held, false)
	default:
		return true
	}
}

// walkCases walks switch/select clause bodies on clones of the entry set and
// merges the falling-through outs by intersection. For a switch without a
// default clause the entry set joins the merge (no case may match); a select
// always runs exactly one clause.
func (w *heldWalker) walkCases(body *ast.BlockStmt, held *[]lockRef, isSwitch bool) bool {
	var outs [][]lockRef
	hasDefault := false
	for _, cs := range body.List {
		caseHeld := heldClone(*held)
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.walkExpr(e, &caseHeld)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			w.walkStmt(c.Comm, &caseHeld)
			stmts = c.Body
		}
		if w.walkList(stmts, &caseHeld) {
			outs = append(outs, caseHeld)
		}
	}
	if isSwitch && !hasDefault {
		outs = append(outs, heldClone(*held))
	}
	if len(outs) == 0 {
		*held = nil
		return len(body.List) == 0 || (isSwitch && !hasDefault)
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = heldIntersect(merged, o)
	}
	*held = merged
	return true
}

// walkDefer models `defer mu.Unlock()` as keeping the lock held for the rest
// of the body; other deferred work runs at an unknown point and is walked
// with an empty held set.
func (w *heldWalker) walkDefer(s *ast.DeferStmt, held *[]lockRef) bool {
	if _, ok := classifyLockCall(w.pass, s.Call, w.owner); ok {
		return true
	}
	for _, a := range s.Call.Args {
		w.walkExpr(a, held)
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		var empty []lockRef
		w.walkList(lit.Body.List, &empty)
	} else if w.onCall != nil {
		w.onCall(s.Call, nil)
	}
	return true
}

// walkExpr fires events for the calls, accesses, and lock operations inside
// one expression, mutating held through lock calls in source order.
func (w *heldWalker) walkExpr(e ast.Expr, held *[]lockRef) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			var empty []lockRef
			w.walkList(n.Body.List, &empty)
			return false
		case *ast.CallExpr:
			if op, ok := classifyLockCall(w.pass, n, w.owner); ok {
				if op.acquire {
					if w.onAcquire != nil {
						w.onAcquire(op, *held)
					}
					*held = heldAdd(*held, op.ref)
				} else {
					if w.onRelease != nil {
						w.onRelease(op, *held)
					}
					*held = heldRemove(*held, op.ref)
				}
				return false
			}
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				for _, a := range n.Args {
					w.walkExpr(a, held)
				}
				w.walkList(lit.Body.List, held) // immediately invoked: inherits held
				return false
			}
			if w.onCall != nil {
				w.onCall(n, *held)
			}
			return true
		case *ast.SelectorExpr:
			if w.onAccess != nil {
				w.onAccess(n, *held)
			}
			return true
		}
		return true
	})
}

// isPanicCall reports whether e is a direct call to the panic builtin.
func isPanicCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "panic"
}

// ---- decl index ------------------------------------------------------------

// declIndex maps *types.Func identities to their declarations across every
// package an analyzer has seen — the cross-package spine lockorder,
// goroleak, and guardedstate share with hotalloc's summary walk.
type declIndex struct {
	decls map[*types.Func]*declEntry
}

type declEntry struct {
	fd   *ast.FuncDecl
	pass *Pass
}

func (ix *declIndex) add(pass *Pass) {
	if ix.decls == nil {
		ix.decls = make(map[*types.Func]*declEntry)
	}
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			ix.decls[fn] = &declEntry{fd: fd, pass: pass}
		}
	})
}

// moduleCallees returns the statically resolvable intra-module callees of a
// body, in source order.
func moduleCallees(pass *Pass, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeOf(pass.Info, call); fn != nil && fn.Pkg() != nil && isModulePath(fn.Pkg().Path()) {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}
