package obs

import "sync/atomic"

// Span identity gives trace events a tree structure: every solver layer
// that owns a phase of the run — an htpd ladder rung, a FLOW iteration, a
// spreading-metric computation, a V-cycle level, a refinement — mints one
// SpanID under its caller's span and stamps it on the events it emits, so
// a flat JSONL trace reconstructs into the full tree of where the run
// spent its time (cmd/htptrace does exactly that).
//
// The discipline mirrors the rest of the package: all span work is gated
// on a live observer, so a run with telemetry off mints nothing and
// allocates nothing. Span IDs come from a plain atomic counter — never
// from the solvers' random sources — so attaching spans cannot change any
// computed result (the golden-hash determinism tests pin this).
//
// IDs are minted parent-first: a layer needs its own span before it can
// hand child scopes down, so within one run every event satisfies
// Parent < Span. The schema round-trip test asserts this "parent before
// child" ordering on whole traces.

// SpanID identifies one node of a run's span tree. 0 means "no span" and
// is omitted from JSON, like the other optional Event fields.
type SpanID uint64

// SpanCtx mints the span IDs of one run (or one htpd job): a shared
// counter, so IDs are unique within the trace that shares the SpanCtx.
// Safe for concurrent minting (concurrent FLOW iterations).
type SpanCtx struct {
	last atomic.Uint64
	// root and end are set on a block made by Reserve: it hands out the IDs
	// up to end, then mints from root.
	root *SpanCtx
	end  uint64
}

// NewSpanCtx returns a fresh minter; the first NewSpan returns 1.
func NewSpanCtx() *SpanCtx { return &SpanCtx{} }

// NewSpan mints the next span ID.
func (c *SpanCtx) NewSpan() SpanID {
	id := c.last.Add(1)
	if c.root != nil && id > c.end {
		return c.root.NewSpan()
	}
	return SpanID(id)
}

// Reserve takes the next n IDs from the run's counter now and returns a
// minter that hands them out in order, then falls back to the counter.
// FLOW reserves each iteration's IDs in canonical order before any
// iteration starts, so span IDs do not depend on which worker reaches an
// iteration first.
func (c *SpanCtx) Reserve(n int) *SpanCtx {
	root := c
	if c.root != nil {
		root = c.root
	}
	end := root.last.Add(uint64(n))
	b := &SpanCtx{root: root, end: end}
	b.last.Store(end - uint64(n))
	return b
}

// SpanScope is the span context a caller threads into a solver layer's
// Options: the run's minter plus the span the layer should nest under.
// The zero value is valid everywhere — Enter then starts a fresh ID space
// (a standalone run becomes its own root) and Mint reports no span.
type SpanScope struct {
	// Ctx mints the run's span IDs; nil means this layer starts its own.
	Ctx *SpanCtx
	// Parent is the span the entered layer nests under; 0 means root.
	Parent SpanID
}

// Enter mints a span for the entered layer and returns the child scope to
// thread further down (Parent set to the new span) together with next
// wrapped to stamp the span on every event that does not already carry
// one. When next is nil — telemetry off — nothing is minted and the
// returned observer is nil, preserving the zero-cost disabled path.
func (s SpanScope) Enter(next Observer) (SpanScope, Observer) {
	if next == nil {
		return s, nil
	}
	ctx := s.Ctx
	if ctx == nil {
		ctx = NewSpanCtx()
	}
	span := ctx.NewSpan()
	return SpanScope{Ctx: ctx, Parent: span}, WithSpan(next, span, s.Parent)
}

// Mint returns a new span under the scope's parent, or 0 when the scope
// carries no minter (telemetry threading is off along this path). Events
// stamped with span 0 simply inherit the nearest enclosing span from the
// WithSpan wrappers, so an unthreaded caller degrades to coarser identity
// rather than a broken tree.
func (s SpanScope) Mint() SpanID {
	if s.Ctx == nil {
		return 0
	}
	return s.Ctx.NewSpan()
}

// WithSpan returns an observer stamping span/parent on every event that
// does not already carry a span, forwarding to next. Because an event
// flows from the emission site outward, the wrapper nearest the emitter
// stamps first and enclosing taggers leave the event untouched — nest
// the most specific span closest to the emission site (e.g. the iteration
// tagger wraps the run-tagged sink). Returns nil for nil next so the
// disabled fast path survives wrapping.
func WithSpan(next Observer, span, parent SpanID) Observer {
	if next == nil {
		return nil
	}
	return spanTagger{next: next, span: span, parent: parent}
}

type spanTagger struct {
	next         Observer
	span, parent SpanID
}

func (t spanTagger) Event(e Event) {
	if e.Span == 0 {
		e.Span, e.Parent = t.span, t.parent
	}
	t.next.Event(e)
}

// WithJob returns an observer stamping a job identifier on every event
// that does not already carry one — htpd tags each job's events before
// they merge into the daemon-wide trace file, so `htptrace -job` can
// follow a single job. Returns nil for nil next.
func WithJob(next Observer, job string) Observer {
	if next == nil {
		return nil
	}
	return jobTagger{next: next, job: job}
}

type jobTagger struct {
	next Observer
	job  string
}

func (t jobTagger) Event(e Event) {
	if e.Job == "" {
		e.Job = t.job
	}
	t.next.Event(e)
}
