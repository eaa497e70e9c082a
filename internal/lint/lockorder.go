package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a whole-unit lock-ordering graph over sync.Mutex /
// sync.RWMutex acquisitions in the configured packages and reports:
//
//   - ordering cycles: lock B acquired while A is held in one function and A
//     while B is held in another (including through callees — a helper that
//     acquires a lock, like a lock()/unlock() wrapper pair, propagates its
//     net acquisition to every caller);
//   - self-deadlocks: a lock (re)acquired, directly or transitively, while
//     already held;
//   - blocking operations under a lock: channel send/receive/range, selects
//     without a default arm, and net/bufio I/O. A non-blocking select (with
//     a default arm) is exempt — that is the engine's doorbell idiom. I/O is
//     only reported for mixed-use locks: a mutex whose every critical
//     section performs I/O is a dedicated write-serialization lock (the
//     server's per-connection wmu) and is by design held across Flush.
//
// Lock identity is the field or variable object, so `s.mu` names the same
// lock across every instance and function. The walk is branch-aware (a
// terminating guard clause that unlocks does not leak its release into the
// fallthrough path) and go statements are fences: a spawned goroutine's
// acquisitions are its own, not edges from the spawner's held set.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock-ordering cycles and blocking calls under locks",
	Run:  runLockOrder,
}

// LockConfig scopes the lockorder analyzer.
type LockConfig struct {
	// Pkgs are the import-path prefixes whose functions are analyzed.
	Pkgs []string
	// IOPkgs are packages whose IOFuncs-named functions/methods count as
	// connection I/O (typically net, bufio, io).
	IOPkgs []string
	// IOFuncs are the function/method names counting as blocking I/O.
	IOFuncs []string
}

func runLockOrder(u *Unit) error {
	cfg := u.Config.Locks
	if len(cfg.Pkgs) == 0 {
		return nil
	}
	la := &lockAnalyzer{
		u:          u,
		cg:         newCallGraph(u),
		cfg:        cfg,
		summaries:  map[*types.Func]*lockSummary{},
		inProgress: map[*types.Func]bool{},
		names:      map[types.Object]string{},
		edges:      map[[2]types.Object]token.Pos{},
		acquirers:  map[types.Object]map[string]bool{},
		ioUnder:    map[types.Object]map[string]bool{},
	}
	for _, pkg := range u.Pkgs {
		if !pathMatchesAny(pkg.Path, cfg.Pkgs) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					la.summary(obj)
				}
			}
		}
	}
	la.reportIO()
	la.reportCycles()
	return nil
}

// lockSummary is one function's effect on its caller's lock state.
type lockSummary struct {
	netAcquired []types.Object // locks held at exit that were not held at entry
	netReleased []types.Object // caller-held locks this function releases
	allAcquired []types.Object // every lock acquired inside, transitively
	chanBlock   bool           // performs a blocking channel op somewhere inside
	ioOp        bool           // performs connection I/O somewhere inside
}

type ioReport struct {
	lock types.Object
	fn   string
	pos  token.Pos
	op   string
	held string
}

type lockAnalyzer struct {
	u          *Unit
	cg         *callGraph
	cfg        LockConfig
	summaries  map[*types.Func]*lockSummary
	inProgress map[*types.Func]bool
	names      map[types.Object]string
	edges      map[[2]types.Object]token.Pos
	acquirers  map[types.Object]map[string]bool
	ioUnder    map[types.Object]map[string]bool
	ioReports  []ioReport
}

// summary computes (memoized) the lock summary of fn, walking its body once.
// Reports and graph edges are only recorded for functions inside the
// configured packages; out-of-scope callees still contribute their net
// effects.
func (la *lockAnalyzer) summary(fn *types.Func) *lockSummary {
	if s, ok := la.summaries[fn]; ok {
		return s
	}
	if la.inProgress[fn] {
		return &lockSummary{} // recursion: no net effect
	}
	gf, ok := la.cg.funcs[fn]
	if !ok {
		return &lockSummary{}
	}
	la.inProgress[fn] = true
	w := &lockWalk{
		la:     la,
		pkg:    gf.pkg,
		fnName: gf.pkg.Types.Name() + "." + funcDeclName(gf.decl),
		record: pathMatchesAny(gf.pkg.Path, la.cfg.Pkgs),
		sum:    &lockSummary{},
	}
	st := &lockState{}
	st, _ = w.stmts(gf.decl.Body.List, st)
	// Deferred unlocks run at every exit: subtract them from the net state.
	for _, d := range w.deferred {
		st.release(d)
	}
	w.sum.netAcquired = append([]types.Object(nil), st.held...)
	w.sum.netReleased = append([]types.Object(nil), st.released...)
	delete(la.inProgress, fn)
	la.summaries[fn] = w.sum
	return w.sum
}

// lockState is the walker's per-path state: the multiset of locks held and
// the caller-held locks released so far.
type lockState struct {
	held     []types.Object
	released []types.Object
}

func (s *lockState) clone() *lockState {
	return &lockState{
		held:     append([]types.Object(nil), s.held...),
		released: append([]types.Object(nil), s.released...),
	}
}

func count(list []types.Object, o types.Object) int {
	n := 0
	for _, x := range list {
		if x == o {
			n++
		}
	}
	return n
}

func removeOne(list []types.Object, o types.Object) []types.Object {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == o {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

func (s *lockState) release(o types.Object) {
	if count(s.held, o) > 0 {
		s.held = removeOne(s.held, o)
	} else {
		s.released = append(s.released, o)
	}
}

// merge folds another path's exit state in, keeping the union (a lock held
// or released on any path counts — conservative toward finding hazards).
func (s *lockState) merge(o *lockState) {
	for _, x := range o.held {
		if count(s.held, x) < count(o.held, x) {
			s.held = append(s.held, x)
		}
	}
	for _, x := range o.released {
		if count(s.released, x) < count(o.released, x) {
			s.released = append(s.released, x)
		}
	}
}

type lockWalk struct {
	la       *lockAnalyzer
	pkg      *Package
	fnName   string
	record   bool
	sum      *lockSummary
	deferred []types.Object // locks with a registered deferred unlock
}

func (w *lockWalk) report(pos token.Pos, format string, args ...any) {
	if w.record {
		w.la.u.Reportf(pos, format, args...)
	}
}

func (w *lockWalk) heldNames(st *lockState) string {
	seen := map[string]bool{}
	var names []string
	for _, o := range st.held {
		n := w.la.names[o]
		if n == "" {
			n = o.Name()
		}
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// --- statements ---

// stmts walks a statement list, threading the lock state through it. The
// returned bool is true when every path through the list terminates
// (return / branch / panic) before falling off the end.
func (w *lockWalk) stmts(list []ast.Stmt, st *lockState) (*lockState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *lockWalk) stmt(s ast.Stmt, st *lockState) (*lockState, bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isB := w.pkg.Info.Uses[id].(*types.Builtin); isB {
					return st, true
				}
			}
		}
		w.expr(s.X, st, false)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, st, false)
		}
		for _, e := range s.Lhs {
			w.expr(e, st, false)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, st, false)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X, st, false)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, st, false)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true // continue/break/goto: leaves the linear path
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.expr(s.Cond, st, false)
		bodySt, bodyTerm := w.stmts(s.Body.List, st.clone())
		var elseSt *lockState
		elseTerm := false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseSt, elseTerm = w.stmts(e.List, st.clone())
		case *ast.IfStmt:
			elseSt, elseTerm = w.stmt(e, st.clone())
		default:
			elseSt = st.clone()
		}
		if bodyTerm && elseTerm {
			return bodySt, true
		}
		switch {
		case bodyTerm:
			return elseSt, false
		case elseTerm:
			return bodySt, false
		default:
			bodySt.merge(elseSt)
			return bodySt, false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.expr(s.Cond, st, false)
		bodySt, bodyTerm := w.stmts(s.Body.List, st.clone())
		if s.Post != nil {
			bodySt, _ = w.stmt(s.Post, bodySt)
		}
		if !bodyTerm {
			st.merge(bodySt)
		}
		return st, false
	case *ast.RangeStmt:
		w.expr(s.X, st, false)
		if t := w.pkg.Info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan && len(st.held) > 0 {
				w.report(s.Pos(), "channel range while %s is held", w.heldNames(st))
			}
		}
		bodySt, bodyTerm := w.stmts(s.Body.List, st.clone())
		if !bodyTerm {
			st.merge(bodySt)
		}
		return st, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.expr(s.Tag, st, false)
		merged := st.clone()
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				w.expr(e, st, false)
			}
			if cSt, cTerm := w.stmts(clause.Body, st.clone()); !cTerm {
				merged.merge(cSt)
			}
		}
		return merged, false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		merged := st.clone()
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			if cSt, cTerm := w.stmts(clause.Body, st.clone()); !cTerm {
				merged.merge(cSt)
			}
		}
		return merged, false
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if cc.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(st.held) > 0 {
			w.report(s.Pos(), "blocking select while %s is held", w.heldNames(st))
		}
		merged := st.clone()
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			cSt := st.clone()
			if clause.Comm != nil {
				// The comm op's blocking nature was judged at the select
				// level; still walk it for calls in its operands.
				switch comm := clause.Comm.(type) {
				case *ast.SendStmt:
					w.expr(comm.Chan, cSt, true)
					w.expr(comm.Value, cSt, true)
				case *ast.ExprStmt:
					w.expr(comm.X, cSt, true)
				case *ast.AssignStmt:
					for _, e := range comm.Rhs {
						w.expr(e, cSt, true)
					}
				}
			}
			if cSt, cTerm := w.stmts(clause.Body, cSt); !cTerm {
				merged.merge(cSt)
			}
		}
		return merged, false
	case *ast.SendStmt:
		if len(st.held) > 0 {
			w.report(s.Pos(), "channel send while %s is held", w.heldNames(st))
		}
		w.sum.chanBlock = true
		w.expr(s.Chan, st, true)
		w.expr(s.Value, st, true)
	case *ast.DeferStmt:
		w.deferCall(s.Call, st)
	case *ast.GoStmt:
		// Fence: the spawned goroutine's locks are its own ordering domain.
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	}
	return st, false
}

// deferCall handles `defer f(...)`: unlocks (direct or via a releasing
// helper) are registered to run at exit; a deferred function literal is
// walked with the current held set for its internal reports.
func (w *lockWalk) deferCall(call *ast.CallExpr, st *lockState) {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		litSt := st.clone()
		w.stmts(lit.Body.List, litSt)
		return
	}
	if fn, recv := selCallee(w.pkg.Info, call); fn != nil {
		if isMutexMethod(fn, "Unlock") || isMutexMethod(fn, "RUnlock") {
			if obj := refObject(w.pkg.Info, recv); obj != nil {
				w.deferred = append(w.deferred, obj)
			}
			return
		}
	}
	if static, _, _ := w.la.cg.resolve(w.pkg, call); static != nil {
		if _, inModule := w.la.cg.funcs[static]; inModule {
			sum := w.la.summary(static)
			w.deferred = append(w.deferred, sum.netReleased...)
		}
	}
	for _, a := range call.Args {
		w.expr(a, st, false)
	}
}

// --- expressions ---

func (w *lockWalk) expr(e ast.Expr, st *lockState, inSelect bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litSt := st.clone()
			w.stmts(n.Body.List, litSt)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if !inSelect && len(st.held) > 0 {
					w.report(n.Pos(), "channel receive while %s is held", w.heldNames(st))
				}
				w.sum.chanBlock = true
			}
		case *ast.CallExpr:
			w.call(n, st)
			for _, a := range n.Args {
				w.expr(a, st, inSelect)
			}
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
				w.expr(sel.X, st, inSelect)
			}
			return false
		}
		return true
	})
}

func isMutexMethod(fn *types.Func, name string) bool {
	return methodIs(fn, "sync", "Mutex", name) || methodIs(fn, "sync", "RWMutex", name)
}

// call applies one call's lock effects to the walker state.
func (w *lockWalk) call(call *ast.CallExpr, st *lockState) {
	if fn, recv := selCallee(w.pkg.Info, call); fn != nil {
		switch {
		case isMutexMethod(fn, "Lock") || isMutexMethod(fn, "RLock"):
			if obj := refObject(w.pkg.Info, recv); obj != nil {
				w.registerName(obj, recv)
				w.acquire(obj, call.Pos(), st)
			}
			return
		case isMutexMethod(fn, "Unlock") || isMutexMethod(fn, "RUnlock"):
			if obj := refObject(w.pkg.Info, recv); obj != nil {
				st.release(obj)
			}
			return
		}
		if w.isIOFunc(fn) {
			w.sum.ioOp = true
			w.recordIO(call.Pos(), fn.Name(), st)
			return
		}
	}
	static, _, _ := w.la.cg.resolve(w.pkg, call)
	if static == nil {
		return
	}
	if w.isIOFunc(static) {
		w.sum.ioOp = true
		w.recordIO(call.Pos(), static.Name(), st)
		return
	}
	if _, inModule := w.la.cg.funcs[static]; !inModule {
		return
	}
	sum := w.la.summary(static)
	calleeName := static.Name()
	for _, a := range sum.allAcquired {
		if count(st.held, a) > 0 {
			w.report(call.Pos(), "call to %s acquires %s while it is already held (self-deadlock)", calleeName, w.la.names[a])
		} else {
			w.edgeFrom(st, a, call.Pos())
		}
	}
	w.mergeAll(sum.allAcquired)
	if len(st.held) > 0 && sum.chanBlock {
		w.report(call.Pos(), "call to %s performs a blocking channel operation while %s is held", calleeName, w.heldNames(st))
	}
	if sum.ioOp {
		w.sum.ioOp = true
		w.recordIO(call.Pos(), calleeName, st)
	}
	if sum.chanBlock {
		w.sum.chanBlock = true
	}
	for _, o := range sum.netReleased {
		st.release(o)
	}
	for _, o := range sum.netAcquired {
		w.acquire(o, call.Pos(), st)
	}
}

func (w *lockWalk) isIOFunc(fn *types.Func) bool {
	if fn.Pkg() == nil || !pathMatchesAny(fn.Pkg().Path(), w.la.cfg.IOPkgs) {
		return false
	}
	for _, n := range w.la.cfg.IOFuncs {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// acquire records one lock acquisition: self-deadlock when already held,
// ordering edges from everything currently held, and the acquirer set used
// by the dedicated-I/O-lock exemption.
func (w *lockWalk) acquire(obj types.Object, pos token.Pos, st *lockState) {
	if count(st.held, obj) > 0 {
		w.report(pos, "lock %s acquired while already held (self-deadlock)", w.la.names[obj])
	} else {
		w.edgeFrom(st, obj, pos)
	}
	w.mergeAll([]types.Object{obj})
	st.held = append(st.held, obj)
	if w.record {
		if w.la.acquirers[obj] == nil {
			w.la.acquirers[obj] = map[string]bool{}
		}
		w.la.acquirers[obj][w.fnName] = true
	}
}

func (w *lockWalk) edgeFrom(st *lockState, to types.Object, pos token.Pos) {
	if !w.record {
		return
	}
	seen := map[types.Object]bool{}
	for _, from := range st.held {
		if from == to || seen[from] {
			continue
		}
		seen[from] = true
		key := [2]types.Object{from, to}
		if _, ok := w.la.edges[key]; !ok {
			w.la.edges[key] = pos
		}
	}
}

func (w *lockWalk) mergeAll(objs []types.Object) {
	for _, o := range objs {
		if count(w.sum.allAcquired, o) == 0 {
			w.sum.allAcquired = append(w.sum.allAcquired, o)
		}
	}
}

func (w *lockWalk) recordIO(pos token.Pos, op string, st *lockState) {
	if !w.record || len(st.held) == 0 {
		return
	}
	for _, o := range st.held {
		if w.la.ioUnder[o] == nil {
			w.la.ioUnder[o] = map[string]bool{}
		}
		w.la.ioUnder[o][w.fnName] = true
	}
	w.la.ioReports = append(w.la.ioReports, ioReport{
		lock: st.held[len(st.held)-1],
		fn:   w.fnName,
		pos:  pos,
		op:   op,
		held: w.heldNames(st),
	})
}

// registerName derives a display name for a lock object from its first
// acquisition site (pkg.Type.field or pkg.var).
func (w *lockWalk) registerName(obj types.Object, recv ast.Expr) {
	if _, ok := w.la.names[obj]; ok {
		return
	}
	name := obj.Name()
	if sel, ok := unparen(recv).(*ast.SelectorExpr); ok {
		name = namedBaseName(w.pkg.Info, sel.X) + "." + name
	}
	w.la.names[obj] = w.pkg.Types.Name() + "." + name
}

// --- whole-unit reporting ---

// reportIO emits I/O-under-lock findings, exempting dedicated I/O locks:
// when every function that acquires a lock performs I/O under it, the lock
// exists to serialize that I/O and holding it across Write/Flush is its job.
func (la *lockAnalyzer) reportIO() {
	for _, r := range la.ioReports {
		acq, io := la.acquirers[r.lock], la.ioUnder[r.lock]
		mixed := false
		for fn := range acq {
			if !io[fn] {
				mixed = true
				break
			}
		}
		if !mixed {
			continue
		}
		la.u.Reportf(r.pos, "%s I/O while %s is held: %s also guards non-I/O critical sections (use a dedicated write lock)",
			r.op, r.held, la.names[r.lock])
	}
}

// reportCycles finds strongly connected components of the ordering graph and
// reports every edge inside one.
func (la *lockAnalyzer) reportCycles() {
	// Deterministic node order by display name.
	nodeSet := map[types.Object]bool{}
	for k := range la.edges {
		nodeSet[k[0]] = true
		nodeSet[k[1]] = true
	}
	nodes := make([]types.Object, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return la.names[nodes[i]] < la.names[nodes[j]] })
	adj := map[types.Object][]types.Object{}
	for k := range la.edges {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for from := range adj {
		sort.Slice(adj[from], func(i, j int) bool { return la.names[adj[from][i]] < la.names[adj[from][j]] })
	}
	comp := sccOf(nodes, adj)
	for k, pos := range la.edges {
		from, to := k[0], k[1]
		if comp[from] != comp[to] {
			continue
		}
		var cycle []string
		for n, c := range comp {
			if c == comp[from] {
				cycle = append(cycle, la.names[n])
			}
		}
		sort.Strings(cycle)
		la.u.Reportf(pos, "lock ordering cycle: %s acquired while %s is held (cycle through %s)",
			la.names[to], la.names[from], strings.Join(cycle, ", "))
	}
}

// sccOf computes strongly connected components (Tarjan) over the ordering
// graph, returning a component id per node. Nodes in singleton components
// without a self-edge are acyclic.
func sccOf(nodes []types.Object, adj map[types.Object][]types.Object) map[types.Object]int {
	index := map[types.Object]int{}
	low := map[types.Object]int{}
	onStack := map[types.Object]bool{}
	comp := map[types.Object]int{}
	var stack []types.Object
	next, compID := 0, 0
	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, u := range adj[v] {
			if _, seen := index[u]; !seen {
				strongconnect(u)
				if low[u] < low[v] {
					low[v] = low[u]
				}
			} else if onStack[u] && index[u] < low[v] {
				low[v] = index[u]
			}
		}
		if low[v] == index[v] {
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				comp[u] = compID
				if u == v {
					break
				}
			}
			compID++
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comp
}
