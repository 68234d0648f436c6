package obs

// Progress is a coarse, render-ready snapshot of a run for live display —
// the one-line progress view of the trace stream. Fields accumulate across
// events: the callback always sees the latest known value of each.
type Progress struct {
	// Phase is what the solver is doing right now: "metric", "build",
	// "refine", or "done" on the final callback.
	Phase string
	// Iter is the FLOW iteration the last event came from (1-based).
	Iter int
	// Round is the last metric round or refinement pass seen.
	Round int
	// Active is the metric engine's active-set size.
	Active int
	// Injections is the cumulative injection count of the current metric.
	Injections int
	// BestCost is the best partition cost seen so far; valid iff HaveBest.
	BestCost float64
	HaveBest bool
	// Stop is empty until the terminal callback, then the stop reason.
	Stop string
}

// ProgressFunc receives progress snapshots. It is invoked one call at a
// time (FLOW sequences its concurrent iterations' emissions), at most once
// per trace event — round-level frequency, cheap enough to render directly.
type ProgressFunc func(p Progress)

// ProgressObserver adapts a ProgressFunc into an Observer by folding the
// event stream into a running Progress. Returns nil for a nil func so the
// disabled fast path survives.
func ProgressObserver(fn ProgressFunc) Observer {
	if fn == nil {
		return nil
	}
	return &progressObserver{fn: fn}
}

type progressObserver struct {
	fn ProgressFunc
	p  Progress
}

func (o *progressObserver) Event(e Event) {
	if e.Iter != 0 {
		o.p.Iter = e.Iter
	}
	switch e.Kind {
	case KindMetricRound:
		o.p.Phase = "metric"
		o.p.Round = e.Round
		o.p.Active = e.Active
		o.p.Injections = e.Injections
	case KindMetricDone:
		o.p.Phase = "build"
	case KindBuildDone, KindBest, KindSalvage, KindIterDone:
		if e.Kind == KindIterDone && e.Cost == 0 {
			break // iteration produced nothing; keep the current best
		}
		if e.Cost != 0 && (!o.p.HaveBest || e.Cost < o.p.BestCost) {
			o.p.BestCost = e.Cost
			o.p.HaveBest = true
		}
	case KindRefinePass:
		o.p.Phase = "refine"
		o.p.Round = e.Round
		if e.Cost != 0 {
			o.p.BestCost = e.Cost
			o.p.HaveBest = true
		}
	case KindStop:
		o.p.Phase = "done"
		o.p.Stop = e.Reason
		if e.Cost != 0 {
			o.p.BestCost = e.Cost
			o.p.HaveBest = true
		}
	case KindSpan:
		return // spans summarize a phase already reported; nothing to render
	}
	o.fn(o.p)
}
