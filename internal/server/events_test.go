package server

import (
	"testing"

	"repro/internal/obs"
)

// TestHubCountsDroppedEvents: a subscriber that reads nothing loses the
// events past its buffer, each one counted in htpd_events_dropped, while
// the backlog keeps every event for the next subscriber's replay.
func TestHubCountsDroppedEvents(t *testing.T) {
	h := newEventHub()
	_, live, cancel := h.Subscribe()
	defer cancel()
	before := cEventsDropped.Value()
	const n = subBuffer + 10
	for i := 0; i < n; i++ {
		h.Event(obs.Event{Kind: obs.KindMetricRound, Round: i + 1})
	}
	if d := cEventsDropped.Value() - before; d != 10 {
		t.Fatalf("htpd_events_dropped grew by %d, want 10", d)
	}
	if len(live) != subBuffer {
		t.Fatalf("live channel holds %d events, want %d", len(live), subBuffer)
	}
	replay, _, cancel2 := h.Subscribe()
	defer cancel2()
	if len(replay) != n {
		t.Fatalf("a second subscriber replays %d events, want %d", len(replay), n)
	}
}
