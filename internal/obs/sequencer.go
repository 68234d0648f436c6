package obs

import "sync"

// Sequencer delivers the events of producers 0..n-1 — FLOW's iterations,
// run concurrently — to one sink in producer order, one call at a time: the
// sink sees all of producer 0's events, then all of producer 1's, and so
// on, exactly as if the producers had run one after another. The oldest
// unfinished producer's events go straight to the sink from its own
// goroutine; later producers' events wait in per-producer buffers until
// every producer before them has called Done. No goroutine is started and
// the sink is never called under the sequencer's lock.
type Sequencer struct {
	sink Observer
	mu   sync.Mutex
	cur  int // producer whose events go straight to the sink; -1 while Done drains
	bufs [][]Event
	done []bool
}

// NewSequencer returns a sequencer over n producers feeding sink.
func NewSequencer(sink Observer, n int) *Sequencer {
	return &Sequencer{sink: sink, bufs: make([][]Event, n), done: make([]bool, n)}
}

// Producer returns the observer producer i emits into.
func (s *Sequencer) Producer(i int) Observer { return seqProducer{s: s, i: i} }

type seqProducer struct {
	s *Sequencer
	i int
}

func (p seqProducer) Event(e Event) {
	s := p.s
	s.mu.Lock()
	if p.i != s.cur {
		s.bufs[p.i] = append(s.bufs[p.i], e)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.sink.Event(e)
}

// Done marks producer i finished; it must emit nothing afterwards. When i
// is the current producer, Done hands the sink on: it delivers the buffered
// events of the producers after i in order, skipping past finished ones,
// and makes the first unfinished producer whose buffer it has emptied the
// current one. Each pass either delivers events or advances, so the drain
// ends.
func (s *Sequencer) Done(i int) {
	s.mu.Lock()
	s.done[i] = true
	if i != s.cur {
		s.mu.Unlock()
		return
	}
	s.cur = -1
	s.mu.Unlock()
	for n := i + 1; n < len(s.done); {
		s.mu.Lock()
		buf := s.bufs[n]
		s.bufs[n] = nil // the producer appends to a fresh slice while buf drains
		switch {
		case len(buf) > 0:
			// Deliver, then look again: n may have emitted meanwhile.
		case s.done[n]:
			n++
		default:
			s.cur = n
			n = len(s.done)
		}
		s.mu.Unlock()
		for _, e := range buf {
			s.sink.Event(e)
		}
	}
}
