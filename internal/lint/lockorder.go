package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds an acquisition-order graph over the fleet packages
// (serve, sim, experiments): an edge A→B means some path acquires B while
// holding A, either directly or through a call whose callee transitively
// acquires B. A cycle in the graph is a potential deadlock. The analyzer
// also flags instance-level double locks (sync.Mutex is not reentrant) and
// nested acquisition of two instances of the same class without a declared
// order; mutex value-copies are left to go vet's copylocks pass.
// //dkip:locks-after on a mutex field declares a sanctioned edge; declared
// edges join the graph but a cycle is only reported when at least one of
// its edges was actually observed.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-order cycles and double locks in serve/sim/experiments",
	New:  func() Instance { return &lockOrder{} },
}

// lockScoped is the package set (by directory name) lockorder and
// guardedstate apply to: everything that holds fleet or runner state behind
// mutexes.
var lockScoped = map[string]bool{"serve": true, "sim": true, "experiments": true}

// lockEdge is one acquisition-order observation: to was acquired (or
// reachable through a call) while from was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	inSpawn  bool // observed on a goroutine-spawned path
}

// loFunc is the per-function record the Finish-time fixpoints consume.
type loFunc struct {
	fn       *types.Func
	pass     *Pass
	recvObj  types.Object
	acquires map[string]bool   // classes acquired synchronously (not on spawned paths)
	recvLock map[string]string // receiver-relative mutex path -> class
	callees  []*types.Func     // synchronous module callees
	events   []loEvent
}

// loEvent is one acquire or call with the must-held set at that point.
type loEvent struct {
	op      *lockOp       // acquire event (nil for calls)
	call    *ast.CallExpr // call event (nil for acquires)
	held    []lockRef
	inSpawn bool
}

type lockOrder struct {
	idx      declIndex
	passes   []*Pass
	fset     *token.FileSet
	declared map[string]map[string]token.Pos // from -> to -> directive pos
	star     starSets
	recvStar map[*types.Func]map[string]string
}

func (l *lockOrder) Package(pass *Pass) {
	if l.fset == nil {
		l.fset = pass.Fset
	}
	if !lockScoped[pkgBase(pass.Pkg.Path())] {
		return
	}
	l.idx.add(pass)
	l.passes = append(l.passes, pass)
	l.collectDeclared(pass)
}

// collectDeclared reads //dkip:locks-after directives off mutex field and
// package-level mutex var declarations.
func (l *lockOrder) collectDeclared(pass *Pass) {
	if l.declared == nil {
		l.declared = make(map[string]map[string]token.Pos)
	}
	add := func(from, to string, pos token.Pos) {
		if l.declared[from] == nil {
			l.declared[from] = make(map[string]token.Pos)
		}
		l.declared[from][to] = pos
	}
	arg := func(cg *ast.CommentGroup) (string, token.Pos, bool) {
		if cg == nil {
			return "", token.NoPos, false
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if text == dirLocksAfter || strings.HasPrefix(text, dirLocksAfter+" ") {
				return strings.TrimSpace(strings.TrimPrefix(text, dirLocksAfter)), c.Pos(), true
			}
		}
		return "", token.NoPos, false
	}
	base := pkgBase(pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					st, ok := sp.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
							after, pos, ok := arg(cg)
							if !ok {
								continue
							}
							if after == "" {
								pass.Report(pos, "//dkip:locks-after needs a lock class argument (e.g. serve.Pool.mu)")
								continue
							}
							for _, name := range field.Names {
								add(after, base+"."+sp.Name.Name+"."+name.Name, pos)
							}
						}
					}
				case *ast.ValueSpec:
					for _, cg := range []*ast.CommentGroup{gd.Doc, sp.Doc, sp.Comment} {
						after, pos, ok := arg(cg)
						if !ok {
							continue
						}
						if after == "" {
							pass.Report(pos, "//dkip:locks-after needs a lock class argument (e.g. serve.Pool.mu)")
							continue
						}
						for _, name := range sp.Names {
							add(after, base+"."+name.Name, pos)
						}
					}
				}
			}
		}
	}
}

// Finish walks every scoped function with the must-held walker, runs the
// acquiresStar / recvLocksStar / spawn-reachability fixpoints, and reports
// double locks, unordered same-class nesting, and order cycles.
func (l *lockOrder) Finish(report Reporter) {
	funcs := l.buildRecords()
	l.fixAcquiresStar(funcs)
	l.fixRecvLocks(funcs)
	mhp := l.spawnReachable(funcs)

	var names []string
	byName := make(map[string]*loFunc, len(funcs))
	for _, r := range funcs {
		byName[r.fn.FullName()] = r
		names = append(names, r.fn.FullName())
	}
	sort.Strings(names)

	var edges []lockEdge
	for _, name := range names {
		r := byName[name]
		concurrent := mhp[r.fn]
		for _, ev := range r.events {
			if ev.op != nil {
				edges = append(edges, l.processAcquire(r, ev, report, concurrent)...)
				continue
			}
			edges = append(edges, l.processCall(r, ev, byName, report, concurrent)...)
		}
	}
	l.reportCycles(edges, report)
}

// buildRecords runs the held walker over every function declaration in the
// scoped packages, recording acquire/call events with their held sets.
func (l *lockOrder) buildRecords() []*loFunc {
	var out []*loFunc
	for _, pass := range l.passes {
		pass := pass
		eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			r := &loFunc{
				fn:       fn,
				pass:     pass,
				acquires: make(map[string]bool),
				recvLock: make(map[string]string),
			}
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				r.recvObj = pass.Info.Defs[fd.Recv.List[0].Names[0]]
			}
			// Positions inside goroutine-spawned literal bodies: events there
			// happen on the new goroutine, not synchronously in this call.
			var spawnRanges [][2]token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
						spawnRanges = append(spawnRanges, [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
					}
				}
				return true
			})
			inSpawn := func(pos token.Pos) bool {
				for _, sr := range spawnRanges {
					if pos >= sr[0] && pos < sr[1] {
						return true
					}
				}
				return false
			}
			w := &heldWalker{
				pass:  pass,
				owner: fd.Name.Name,
				onAcquire: func(op lockOp, held []lockRef) {
					sp := inSpawn(op.pos)
					r.events = append(r.events, loEvent{op: &op, held: heldClone(held), inSpawn: sp})
					if !sp {
						r.acquires[op.ref.class] = true
					}
					if r.recvObj != nil && op.ref.root == r.recvObj && op.ref.path != "" {
						r.recvLock[op.ref.path] = op.ref.class
					}
				},
				onCall: func(call *ast.CallExpr, held []lockRef) {
					fn := calleeOf(pass.Info, call)
					if fn == nil || fn.Pkg() == nil || !isModulePath(fn.Pkg().Path()) {
						return
					}
					sp := inSpawn(call.Pos())
					r.events = append(r.events, loEvent{call: call, held: heldClone(held), inSpawn: sp})
					if !sp {
						r.callees = append(r.callees, fn)
					}
				},
			}
			w.walkFunc(fd.Body, nil)
			out = append(out, r)
		})
	}
	return out
}

// acquiresStarOf holds the transitive-acquire fixpoint keyed by function.
type starSets map[*types.Func]map[string]bool

func (l *lockOrder) fixAcquiresStar(funcs []*loFunc) {
	l.star = make(starSets, len(funcs))
	for _, r := range funcs {
		s := make(map[string]bool, len(r.acquires))
		for c := range r.acquires {
			s[c] = true
		}
		l.star[r.fn] = s
	}
	for changed := true; changed; {
		changed = false
		for _, r := range funcs {
			s := l.star[r.fn]
			for _, callee := range r.callees {
				for c := range l.star[callee] {
					if !s[c] {
						s[c] = true
						changed = true
					}
				}
			}
		}
	}
}

// fixRecvLocks propagates receiver-relative lock paths through calls on the
// same receiver: if g locks recv.mu and f calls recv.g(), f locks recv.mu.
func (l *lockOrder) fixRecvLocks(funcs []*loFunc) {
	rec := make(map[*types.Func]*loFunc, len(funcs))
	for _, r := range funcs {
		rec[r.fn] = r
	}
	l.recvStar = make(map[*types.Func]map[string]string, len(funcs))
	for _, r := range funcs {
		m := make(map[string]string, len(r.recvLock))
		for p, c := range r.recvLock {
			m[p] = c
		}
		l.recvStar[r.fn] = m
	}
	for changed := true; changed; {
		changed = false
		for _, r := range funcs {
			if r.recvObj == nil {
				continue
			}
			m := l.recvStar[r.fn]
			for _, ev := range r.events {
				if ev.call == nil {
					continue
				}
				callee, recvRoot, recvPath := l.callReceiver(r.pass, ev.call)
				if callee == nil || recvRoot != r.recvObj || recvPath != "" {
					continue
				}
				for p, c := range l.recvStar[callee] {
					if _, ok := m[p]; !ok {
						m[p] = c
						changed = true
					}
				}
			}
		}
	}
}

// callReceiver resolves a method call's receiver expression to (callee,
// root object, dotted path) when it is a plain ident/selector chain.
func (l *lockOrder) callReceiver(pass *Pass, call *ast.CallExpr) (*types.Func, types.Object, string) {
	fn := calleeOf(pass.Info, call)
	if fn == nil {
		return nil, nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, nil, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil, ""
	}
	root, path, pinned := refOfExpr(pass, sel.X)
	if !pinned {
		return fn, nil, ""
	}
	return fn, root, path
}

// spawnReachable computes the may-happen-in-parallel set: every function
// reachable (over synchronous module calls) from a goroutine-spawned body.
func (l *lockOrder) spawnReachable(funcs []*loFunc) map[*types.Func]bool {
	rec := make(map[*types.Func]*loFunc, len(funcs))
	for _, r := range funcs {
		rec[r.fn] = r
	}
	var queue []*types.Func
	seen := make(map[*types.Func]bool)
	push := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			queue = append(queue, fn)
		}
	}
	for _, r := range funcs {
		pass := r.pass
		if de := l.idx.decls[r.fn]; de != nil {
			ast.Inspect(de.fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				// Spawned static callees; literal bodies' own callees are
				// already in r.callees-adjacent events, so walk them here.
				if fn := calleeOf(pass.Info, g.Call); fn != nil && fn.Pkg() != nil && isModulePath(fn.Pkg().Path()) {
					push(fn)
				}
				if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
					for _, fn := range moduleCallees(pass, lit.Body) {
						push(fn)
					}
				}
				return true
			})
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if r := rec[fn]; r != nil {
			for _, c := range r.callees {
				push(c)
			}
		}
	}
	return seen
}

// processAcquire handles one direct acquire event: instance double lock,
// unordered same-class nesting, and order edges from every held class.
func (l *lockOrder) processAcquire(r *loFunc, ev loEvent, report Reporter, concurrent bool) []lockEdge {
	var edges []lockEdge
	op := ev.op
	if heldHasInstance(ev.held, op.ref) {
		report(op.pos, "double lock of %s: this mutex instance is already held on every path here (sync mutexes are not reentrant)", op.ref.class)
		return nil
	}
	for _, h := range ev.held {
		if h.class == op.ref.class {
			if !l.declaredEdge(h.class, op.ref.class) {
				report(op.pos, "acquiring a second %s instance while one is held: without a declared order two goroutines can deadlock; annotate the field with //dkip:locks-after %s if the nesting order is invariant", op.ref.class, op.ref.class)
			}
			continue
		}
		edges = append(edges, lockEdge{from: h.class, to: op.ref.class, pos: op.pos, inSpawn: ev.inSpawn || concurrent})
	}
	return edges
}

// processCall handles one call event: edges from held classes into the
// callee's transitive acquires, and double locks through recvLocksStar.
func (l *lockOrder) processCall(r *loFunc, ev loEvent, byName map[string]*loFunc, report Reporter, concurrent bool) []lockEdge {
	var edges []lockEdge
	callee, recvRoot, recvPath := l.callReceiver(r.pass, ev.call)
	if callee == nil {
		callee = calleeOf(r.pass.Info, ev.call)
	}
	if callee == nil {
		return nil
	}
	for c := range l.star[callee] {
		for _, h := range ev.held {
			if h.class != c {
				edges = append(edges, lockEdge{from: h.class, to: c, pos: ev.call.Pos(), inSpawn: ev.inSpawn || concurrent})
			}
		}
	}
	if recvRoot != nil {
		for p, c := range l.recvStar[callee] {
			full := p
			if recvPath != "" {
				full = recvPath + "." + p
			}
			if heldHasInstance(ev.held, lockRef{class: c, root: recvRoot, path: full}) {
				report(ev.call.Pos(), "calling %s while holding %s: the callee locks the same mutex instance again (deadlock)", callee.Name(), c)
			}
		}
	}
	return edges
}

func (l *lockOrder) declaredEdge(from, to string) bool {
	m, ok := l.declared[from]
	if !ok {
		return false
	}
	_, ok = m[to]
	return ok
}

// reportCycles merges observed and declared edges into one graph and
// reports each cycle that contains at least one observed edge, once, at the
// first-by-position observed edge that closes it.
func (l *lockOrder) reportCycles(observed []lockEdge, report Reporter) {
	adj := make(map[string]map[string]bool)
	addEdge := func(from, to string) {
		if from == to {
			return
		}
		if adj[from] == nil {
			adj[from] = make(map[string]bool)
		}
		adj[from][to] = true
	}
	for _, e := range observed {
		addEdge(e.from, e.to)
	}
	for from, tos := range l.declared {
		for to := range tos {
			addEdge(from, to)
		}
	}
	// Deterministic edge order: by source position.
	sort.Slice(observed, func(i, j int) bool {
		a, b := l.fset.Position(observed[i].pos), l.fset.Position(observed[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	reported := make(map[string]bool)
	for _, e := range observed {
		path := l.findPath(adj, e.to, e.from) // e.to -> ... -> e.from
		if path == nil {
			continue
		}
		nodes := append([]string{e.from}, path[:len(path)-1]...)
		key := canonicalCycle(nodes)
		if reported[key] {
			continue
		}
		reported[key] = true
		note := ""
		if e.inSpawn {
			note = "; the acquisition paths may run concurrently"
		}
		display := strings.Join(append(append([]string(nil), nodes...), nodes[0]), " -> ")
		report(e.pos, "lock-order cycle: %s is acquired while holding %s, closing the cycle %s%s — a concurrent reverse acquisition deadlocks", e.to, e.from, display, note)
	}
}

// findPath returns a node path from -> ... -> to through adj with at least
// one edge, or nil. Deterministic: neighbors visited in sorted order.
func (l *lockOrder) findPath(adj map[string]map[string]bool, from, to string) []string {
	seen := make(map[string]bool)
	var dfs func(cur string) []string
	dfs = func(cur string) []string {
		var next []string
		for n := range adj[cur] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if n == to {
				return []string{cur, to}
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			if p := dfs(n); p != nil {
				return append([]string{cur}, p...)
			}
		}
		return nil
	}
	seen[from] = true
	return dfs(from)
}

// canonicalCycle produces a rotation-invariant key for a cycle node list.
func canonicalCycle(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	min := 0
	for i, n := range nodes {
		if n < nodes[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), nodes[min:]...), nodes[:min]...)
	return strings.Join(rotated, "|")
}
