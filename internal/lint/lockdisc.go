package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockDisc enforces the daemon's lock discipline. Mutexes in this repo
// guard small in-memory state transitions (job state, the event hub log,
// metric families); nothing slow or blocking may happen inside a critical
// section, because the emission path of a running solver goes through those
// locks. Concretely, while a sync.Mutex/RWMutex is held:
//
//   - no blocking channel operation: a bare send/receive, a select without
//     default, or a call whose summary may block (a channel send reached
//     with a lock held stalls every other emitter on that lock). Sends
//     guarded by a select+default are fine: that is exactly the event hub's
//     drop-don't-stall pattern;
//   - no telemetry emission through obs.Emit — observers are caller-
//     supplied and may block (htpd's trace sink writes a file under its
//     own lock);
//   - no sync.WaitGroup/Cond Wait or time.Sleep, directly or via callees.
//
// Separately, the analyzer folds every function's acquisition order —
// lock A held while B is acquired, locally or inside a callee per its
// summary — into a per-run graph keyed by canonical lock identity
// (pkg.Type.field); a cycle means two call paths acquire the same locks in
// opposite orders, the classic latent deadlock, reported once per cycle at
// its earliest acquisition edge. Acquiring a lock the function may
// already hold is reported as a possible self-deadlock.
//
// The region tracking is a must-hold analysis over the statement tree:
// branches are walked with a copy of the held set, terminating branches
// (return/branch) drop out of the join, and only locks held on every
// fall-through path survive past it — so unlock-and-return early exits do
// not poison the rest of the function, and nothing is reported unless the
// lock is provably held. defer mu.Unlock() (directly or through a helper
// whose summary releases the lock) keeps the lock held to the end of the
// function, which is the point: everything after it is a critical section.
var LockDisc = &Analyzer{
	Name: "lockdisc",
	Doc:  "no blocking operation or obs emission while holding a mutex; lock-acquisition order must be cycle-free across the call graph",
	Run:  runLockDisc,
}

// orderEdge records "from held while to acquired" for the cycle check.
type orderEdge struct{ from, to string }

func runLockDisc(pass *Pass) {
	ld := &lockWalker{pass: pass, edges: map[orderEdge]token.Pos{}}
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
			ld.node = pass.Summaries.Node(obj)
			if ld.node == nil {
				continue
			}
			ld.stmts(fd.Body.List, map[string]token.Pos{})
		}
	}
	ld.reportCycles()
}

type lockWalker struct {
	pass  *Pass
	node  *FuncNode
	edges map[orderEdge]token.Pos
}

// stmts walks a statement list with the current held set, returning the
// held set at its fall-through exit and whether control never falls
// through (every path returns, branches away, or panics).
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if lock, acquire, ok := lockOp(w.pass.Info, call, w.node); ok {
				if acquire {
					w.acquire(held, lock, call.Pos())
					held = cloneWith(held, lock, call.Pos())
				} else {
					held = cloneWithout(held, lock)
				}
				return held, false
			}
			// A helper that unlocks on the caller's behalf ends the region.
			if rel := w.calleeReleases(call, held); len(rel) > 0 {
				w.scan(s, held)
				for _, lock := range rel {
					held = cloneWithout(held, lock)
				}
				return held, false
			}
		}
		w.scan(s, held)
		return held, false
	case *ast.DeferStmt:
		if lock, acquire, ok := lockOp(w.pass.Info, s.Call, w.node); ok && !acquire {
			_ = lock // defer mu.Unlock(): held to function end, by design
			return held, false
		}
		if len(w.calleeReleases(s.Call, held)) > 0 {
			return held, false // defer s.unlockAll()-style helper
		}
		// Other deferred calls run at return, outside this region walk.
		return held, false
	case *ast.ReturnStmt:
		w.scan(s, held)
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto: control leaves this list; statements after
		// it are unreachable from here.
		return held, true
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.BlockStmt:
		return w.stmts(s.List, clone(held))
	case *ast.IfStmt:
		if s.Init != nil {
			w.scan(s.Init, held)
		}
		w.scan(s.Cond, held)
		exits := make([]map[string]token.Pos, 0, 2)
		if e, term := w.stmts(s.Body.List, clone(held)); !term {
			exits = append(exits, e)
		}
		if s.Else != nil {
			if e, term := w.stmt(s.Else, clone(held)); !term {
				exits = append(exits, e)
			}
		} else {
			exits = append(exits, held)
		}
		if len(exits) == 0 {
			return held, true
		}
		return intersect(exits), false
	case *ast.ForStmt, *ast.RangeStmt:
		// Loop bodies are checked under the entry held set; a loop that
		// locks/unlocks internally balances per iteration, so the exit set
		// is the entry set.
		var body *ast.BlockStmt
		switch l := s.(type) {
		case *ast.ForStmt:
			if l.Init != nil {
				w.scan(l.Init, held)
			}
			if l.Cond != nil {
				w.scan(l.Cond, held)
			}
			body = l.Body
		case *ast.RangeStmt:
			w.scan(l.X, held)
			body = l.Body
		}
		w.stmts(body.List, clone(held))
		return held, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branching(s, held)
	case *ast.GoStmt:
		// The spawned goroutine does not run under the spawner's critical
		// section; its own body is walked when its function is visited.
		return held, false
	default:
		w.scan(s, held)
		return held, false
	}
}

// branching handles switch/type-switch/select: every clause is walked with
// a copy of the held set; the join keeps only locks held on every
// fall-through path.
func (w *lockWalker) branching(s ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.scan(s.Init, held)
		}
		if s.Tag != nil {
			w.scan(s.Tag, held)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.scan(s.Init, held)
		}
		w.scan(s.Assign, held)
		clauses = s.Body.List
	case *ast.SelectStmt:
		if !selectHasDefault(s) && len(held) > 0 {
			w.reportHeld(s.Pos(), held, "select without default blocks")
		}
		clauses = s.Body.List
	}
	exits := make([]map[string]token.Pos, 0, len(clauses))
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scan(e, held)
			}
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			body = c.Body
		}
		if e, term := w.stmts(body, clone(held)); !term {
			exits = append(exits, e)
		}
	}
	if !hasDefault {
		// Without a default the switch may select no clause at all.
		exits = append(exits, held)
	}
	if len(exits) == 0 {
		return held, true
	}
	return intersect(exits), false
}

// acquire records order edges (and self-acquisition) for taking lock while
// holding held.
func (w *lockWalker) acquire(held map[string]token.Pos, lock string, pos token.Pos) {
	if _, already := held[lock]; already {
		w.pass.Reportf(pos, "acquiring %s while it may already be held (possible self-deadlock)", lock)
		return
	}
	for h := range held {
		edge := orderEdge{from: h, to: lock}
		if _, ok := w.edges[edge]; !ok {
			w.edges[edge] = pos
		}
	}
}

// calleeReleases lists the held locks the call's callee may release on the
// caller's behalf, per its summary.
func (w *lockWalker) calleeReleases(call *ast.CallExpr, held map[string]token.Pos) []string {
	s := calleeSummary(w.pass, call)
	if s == nil {
		return nil
	}
	var out []string
	for lock := range held {
		if s.Releases[lock] {
			out = append(out, lock)
		}
	}
	sort.Strings(out)
	return out
}

// scan reports lock-discipline violations inside one statement's
// synchronous extent, given the held set.
func (w *lockWalker) scan(n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	walkSync(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal defined here may run elsewhere, outside the region.
			return false
		case *ast.SendStmt:
			if !inNonblockingSelectOf(w.pass, n) {
				w.reportHeld(n.Pos(), held, "channel send blocks")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inNonblockingSelectOf(w.pass, n) {
				w.reportHeld(n.Pos(), held, "channel receive blocks")
			}
		case *ast.CallExpr:
			w.scanCall(n, held)
		}
		return true
	})
}

func (w *lockWalker) scanCall(call *ast.CallExpr, held map[string]token.Pos) {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == obsPath && fn.Name() == "Emit" {
		w.reportHeld(call.Pos(), held, "obs.Emit hands the event to a caller-supplied observer that may block")
		return
	}
	if blockingStdlibCall(fn) {
		w.reportHeld(call.Pos(), held, fmt.Sprintf("%s.%s blocks", fn.Pkg().Name(), fn.Name()))
		return
	}
	s := w.pass.Summaries.Of(fn)
	if s == nil {
		return
	}
	if s.MayBlock {
		w.reportHeld(call.Pos(), held, fmt.Sprintf("%s may block (per its call-graph summary)", fn.Name()))
		return
	}
	// Nested acquisitions inside the callee feed the order graph.
	for _, lock := range s.AcquiresSorted() {
		w.acquire(held, lock, call.Pos())
	}
}

func (w *lockWalker) reportHeld(pos token.Pos, held map[string]token.Pos, what string) {
	w.pass.Reportf(pos, "%s while holding %s; move it outside the critical section (or drop via select+default)", what, heldNames(held))
}

func heldNames(held map[string]token.Pos) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

// reportCycles finds cycles in the acquisition-order graph and reports each
// once, at the edge with the smallest position.
func (w *lockWalker) reportCycles() {
	adj := map[string][]string{}
	for e := range w.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for from := range adj {
		sort.Strings(adj[from])
	}
	locks := make([]string, 0, len(adj))
	for k := range adj {
		locks = append(locks, k)
	}
	sort.Strings(locks)

	reported := map[string]bool{}
	for _, start := range locks {
		// DFS for a path back to start; the smallest such cycle through
		// start is reported once, keyed by its canonical rotation.
		var path []string
		var dfs func(cur string) bool
		onPath := map[string]bool{}
		dfs = func(cur string) bool {
			path = append(path, cur)
			onPath[cur] = true
			for _, next := range adj[cur] {
				if next == start {
					return true
				}
				if !onPath[next] {
					if dfs(next) {
						return true
					}
				}
			}
			path = path[:len(path)-1]
			delete(onPath, cur)
			return false
		}
		if !dfs(start) {
			continue
		}
		key := canonicalCycle(path)
		if reported[key] {
			continue
		}
		reported[key] = true
		// Report at the earliest edge position on the cycle.
		pos := token.NoPos
		for i := range path {
			e := orderEdge{from: path[i], to: path[(i+1)%len(path)]}
			if p, ok := w.edges[e]; ok && (pos == token.NoPos || p < pos) {
				pos = p
			}
		}
		w.pass.Reportf(pos, "inconsistent lock order across the call graph: %s form a cycle; acquire them in one global order", key)
	}
}

// canonicalCycle rotates the cycle to start at its smallest lock and
// renders it as "a -> b -> a".
func canonicalCycle(path []string) string {
	min := 0
	for i := range path {
		if path[i] < path[min] {
			min = i
		}
	}
	out := ""
	for i := 0; i <= len(path); i++ {
		if i > 0 {
			out += " -> "
		}
		out += path[(min+i)%len(path)]
	}
	return out
}

// --- held-set helpers ---------------------------------------------------------

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func cloneWith(held map[string]token.Pos, lock string, pos token.Pos) map[string]token.Pos {
	out := clone(held)
	out[lock] = pos
	return out
}

func cloneWithout(held map[string]token.Pos, lock string) map[string]token.Pos {
	out := clone(held)
	delete(out, lock)
	return out
}

func intersect(sets []map[string]token.Pos) map[string]token.Pos {
	out := clone(sets[0])
	for _, s := range sets[1:] {
		for k := range out {
			if _, ok := s[k]; !ok {
				delete(out, k)
			}
		}
	}
	return out
}
