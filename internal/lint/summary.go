package lint

import (
	"go/types"
	"sort"
)

// SentinelMode records how an anytime sentinel can leave a function.
type SentinelMode uint8

const (
	// SentinelDirect: the sentinel itself may be returned, so == would
	// match (but errors.Is is still the contract).
	SentinelDirect SentinelMode = 1 << iota
	// SentinelWrapped: the sentinel may be returned wrapped via
	// fmt.Errorf("...%w", ...), so == can never match it.
	SentinelWrapped
)

// Summary is one function's interprocedural abstract: the facts the
// summary-driven analyzers consume, closed over the static call graph by a
// bottom-up fixpoint. All fields over-approximate "may" behavior except
// PollsCtx, which under-approximates "definitely reaches a poll" — the
// combination keeps every analyzer's false-positive direction consistent
// (a missed poll is reported, an unprovable block is not).
type Summary struct {
	// PollsCtx: the function polls cancellation — ctx.Err(), ctx.Done(), a
	// select with a ctx.Done() case — directly or via some callee.
	PollsCtx bool
	// MayBlock: the function may park its goroutine: a blocking channel
	// operation, a select without default, sync.WaitGroup/Cond Wait,
	// time.Sleep, directly or via some callee.
	MayBlock bool
	// DoesLoop: the function contains a for/range statement, directly or
	// via some callee — the "transitively does looping work" bit ctxpoll
	// uses to separate O(1) helpers from real iteration.
	DoesLoop bool
	// Acquires and Releases hold canonical lock identities (see lockIdent)
	// the function may lock or unlock, directly or via callees.
	Acquires map[string]bool
	Releases map[string]bool
	// Sentinels maps anytime sentinel names to how they may be returned.
	Sentinels map[string]SentinelMode
}

func (s *Summary) init() {
	s.Acquires = map[string]bool{}
	s.Releases = map[string]bool{}
	s.Sentinels = map[string]SentinelMode{}
}

// AcquiresSorted returns the acquired lock identities in stable order.
func (s *Summary) AcquiresSorted() []string { return sortedSet(s.Acquires) }

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// solveSummaries closes the local facts over the call graph: a monotone
// fixpoint on finite boolean/set lattices, so iteration terminates.
// Sentinel sets flow only through retCallees (call results that actually
// propagate out of a return), everything else through every call edge.
func solveSummaries(prog *Program) {
	keys := prog.sortedKeys()
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			node := prog.Funcs[k]
			s := &node.Summary
			for _, cs := range node.Calls {
				callee := prog.Funcs[cs.CalleeKey]
				if callee == nil {
					continue
				}
				c := &callee.Summary
				if c.PollsCtx && !s.PollsCtx {
					s.PollsCtx, changed = true, true
				}
				if c.MayBlock && !s.MayBlock {
					s.MayBlock, changed = true, true
				}
				if c.DoesLoop && !s.DoesLoop {
					s.DoesLoop, changed = true, true
				}
				for lock := range c.Acquires {
					if !s.Acquires[lock] {
						s.Acquires[lock], changed = true, true
					}
				}
				for lock := range c.Releases {
					if !s.Releases[lock] {
						s.Releases[lock], changed = true, true
					}
				}
			}
			for _, rc := range node.retCallees {
				callee := prog.Funcs[rc.key]
				if callee == nil {
					continue
				}
				for name, mode := range callee.Summary.Sentinels {
					if rc.wrapped {
						mode = SentinelWrapped
					}
					if s.Sentinels[name]&mode != mode {
						s.Sentinels[name] |= mode
						changed = true
					}
				}
			}
		}
	}
	solveCtxReachability(prog)
}

// solveCtxReachability computes, per function, the sorted names of *Ctx
// entry points (functions with a context.Context parameter) whose call
// graphs reach it. ctxpoll scopes its loop checks to this set: a loop no
// cancellable entry point can reach has no cancellation contract to break.
func solveCtxReachability(prog *Program) {
	prog.ctxEntries = map[string][]string{}
	for _, k := range prog.sortedKeys() {
		node := prog.Funcs[k]
		if !node.HasCtxParam {
			continue
		}
		name := node.Obj.Name()
		// BFS from the entry; every function reached inherits the entry's
		// name (the entry itself included — its own loops are in scope).
		seen := map[string]bool{}
		queue := []string{k}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			prog.ctxEntries[cur] = append(prog.ctxEntries[cur], name)
			curNode := prog.Funcs[cur]
			if curNode == nil {
				continue
			}
			for _, cs := range curNode.Calls {
				if !seen[cs.CalleeKey] {
					queue = append(queue, cs.CalleeKey)
				}
			}
		}
	}
	for k, names := range prog.ctxEntries {
		sort.Strings(names)
		prog.ctxEntries[k] = dedupStrings(names)
	}
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Summaries is the interprocedural view a Pass exposes to its analyzer:
// per-function summaries plus the ctx-entry reachability relation, shared
// across every package of the run.
type Summaries struct {
	prog *Program
}

// Of returns fn's summary, or nil when fn's body is outside the analyzed
// packages (stdlib, export-data-only dependencies).
func (s *Summaries) Of(fn *types.Func) *Summary {
	node := s.prog.Func(fn)
	if node == nil {
		return nil
	}
	return &node.Summary
}

// Node returns fn's full call-graph node, or nil.
func (s *Summaries) Node(fn *types.Func) *FuncNode {
	return s.prog.Func(fn)
}

// CtxEntries returns the sorted, deduplicated names of context-accepting
// entry points whose call graphs reach fn (fn itself counts when it has a
// ctx parameter). Empty means no cancellation contract applies to fn.
func (s *Summaries) CtxEntries(fn *types.Func) []string {
	if fn == nil {
		return nil
	}
	return s.prog.ctxEntries[FuncKey(fn)]
}
