package obs

import "sync"

// RunReport is the rolled-up summary of one solver run, built by a
// Collector from the event stream — what the CLIs emit as the per-run JSON
// report next to the bench JSON.
type RunReport struct {
	// FinalCost is the cost reported by the terminal stop event.
	FinalCost float64 `json:"final_cost"`
	// Stop is the terminal stop reason ("converged", "deadline", ...).
	Stop string `json:"stop"`
	// Iterations is the highest FLOW iteration that completed.
	Iterations int `json:"iterations,omitempty"`
	// Rounds sums metric sweep rounds across iterations.
	Rounds int `json:"rounds"`
	// Injections sums flow injections across iterations.
	Injections int `json:"injections"`
	// Salvages counts anytime salvage constructions.
	Salvages int `json:"salvages,omitempty"`
	// RefinePasses counts hierarchical FM refinement passes.
	RefinePasses int `json:"refine_passes,omitempty"`
	// PhaseMS attributes wall time to phases: "metric" and "build" from
	// their done events, plus every named span ("refine", "gfm-bisect",
	// ...). Concurrent iterations overlap, so phase times can sum past
	// TotalMS — they attribute work, not the wall clock.
	PhaseMS map[string]float64 `json:"phase_ms"`
	// TotalMS is the whole-run wall time from the stop event.
	TotalMS float64 `json:"total_ms"`
	// Events counts every event observed.
	Events int `json:"events"`
}

// Collector folds the event stream into a RunReport. It locks internally,
// so concurrent runs may share one.
type Collector struct {
	mu  sync.Mutex
	rep RunReport
}

// NewCollector returns an empty collector; attach it as an Observer and
// call Report when the run finishes.
func NewCollector() *Collector {
	return &Collector{rep: RunReport{PhaseMS: map[string]float64{}}}
}

// Event folds one event into the report.
func (c *Collector) Event(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Events++
	switch e.Kind {
	case KindMetricDone:
		c.rep.Rounds += e.Round
		c.rep.Injections += e.Injections
		c.rep.PhaseMS["metric"] += e.ElapsedMS
	case KindBuildDone:
		c.rep.PhaseMS["build"] += e.ElapsedMS
	case KindSpan:
		c.rep.PhaseMS[e.Phase] += e.ElapsedMS
	case KindRefinePass:
		c.rep.RefinePasses++
	case KindSalvage:
		c.rep.Salvages++
		c.rep.PhaseMS["build"] += e.ElapsedMS
	case KindIterDone:
		if e.Iter > c.rep.Iterations {
			c.rep.Iterations = e.Iter
		}
	case KindStop:
		c.rep.Stop = e.Reason
		c.rep.FinalCost = e.Cost
		c.rep.TotalMS = e.ElapsedMS
	}
}

// Report returns a copy of the summary accumulated so far.
func (c *Collector) Report() RunReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := c.rep
	rep.PhaseMS = make(map[string]float64, len(c.rep.PhaseMS))
	for k, v := range c.rep.PhaseMS {
		rep.PhaseMS[k] = v
	}
	return rep
}
