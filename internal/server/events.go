package server

import (
	"sync"

	"repro/internal/obs"
)

// maxHubLog bounds the per-job event backlog kept for late SSE subscribers.
// Solver events are round-level, so real jobs emit hundreds, not millions —
// the cap is a memory guard against pathological runs, not a working limit.
// When it trips, the oldest half is dropped.
const maxHubLog = 4096

// subBuffer is the per-subscriber channel depth. A subscriber that falls
// further behind than this loses events, each counted in
// htpd_events_dropped: the event hub sits on the solver's emission path, so
// it must never block a run on a slow SSE client. Status and the journal
// remain the source of truth.
const subBuffer = 256

// eventHub is the bridge between a job's solver telemetry (internal/obs
// events, delivered one call at a time by the solver running the job) and
// its SSE subscribers (each reading from its own goroutine). It implements
// obs.Observer and is part of the job's sink, which the solver options
// point at, possibly behind obs.SuppressStop so that only the job-level
// terminal stop survives. It is the daemon's only drop point.
//
// Subscribers get a replay of the backlog and then live events; Close ends
// every subscription. All methods lock, so emission and subscription may
// race freely.
type eventHub struct {
	mu      sync.Mutex
	log     []obs.Event
	subs    map[int]chan obs.Event
	nextSub int
	closed  bool
}

func newEventHub() *eventHub {
	return &eventHub{subs: map[int]chan obs.Event{}}
}

// Event records e and fans it out. Never blocks: a full subscriber buffer
// drops the event for that subscriber only, and counts the drop.
func (h *eventHub) Event(e obs.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if len(h.log) >= maxHubLog {
		h.log = append(h.log[:0], h.log[len(h.log)/2:]...)
	}
	h.log = append(h.log, e)
	for _, ch := range h.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop rather than stall the solver
			cEventsDropped.Inc()
		}
	}
}

// Subscribe returns the backlog so far, a live channel, and a cancel
// function. The live channel is closed by Close or by cancel.
func (h *eventHub) Subscribe() (replay []obs.Event, live <-chan obs.Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = append([]obs.Event(nil), h.log...)
	ch := make(chan obs.Event, subBuffer)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	id := h.nextSub
	h.nextSub++
	h.subs[id] = ch
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if c, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(c)
		}
	}
}

// Close ends the stream: subscribers' channels are closed after any events
// already queued, and later Event calls are ignored.
func (h *eventHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
	// The backlog is final: an exact-length copy frees the append slack a
	// finished job would otherwise keep for as long as it is served.
	h.log = append(make([]obs.Event, 0, len(h.log)), h.log...)
}
