// Concurrency tests for the thread-safe pieces of the telemetry stack: the
// Sequencer (one run's concurrent producers, delivered in order) and the
// sinks that lock themselves so concurrent runs may share them (JSONLSink,
// Collector). These are written for the race detector — `make race` runs
// them with -race — and additionally assert ordering and completeness
// directly, so they catch bugs even in a plain `go test` run.
package obs_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/obs"
)

// serialSink counts events and verifies no two Event calls overlap — the
// property a Sequencer gives the sink of one run.
type serialSink struct {
	events   atomic.Int64
	inFlight atomic.Int32
	overlaps atomic.Int64
}

func (s *serialSink) Event(e obs.Event) {
	if s.inFlight.Add(1) != 1 {
		s.overlaps.Add(1)
	}
	s.events.Add(1)
	s.inFlight.Add(-1)
}

// orderSink records Iter/Round pairs; it takes no lock, so the race
// detector reports any sink call that is not ordered after the previous one.
type orderSink struct {
	serialSink
	seen [][2]int
}

func (s *orderSink) Event(e obs.Event) {
	s.serialSink.Event(e)
	s.seen = append(s.seen, [2]int{e.Iter, e.Round})
}

// TestSequencerDeliversInProducerOrder: producers emit concurrently and
// finish in arbitrary order, yet the sink sees producer 0's events, then
// producer 1's, and so on, one call at a time.
func TestSequencerDeliversInProducerOrder(t *testing.T) {
	const (
		producers   = 6
		perProducer = 300
	)
	for trial := 0; trial < 20; trial++ {
		sink := &orderSink{}
		seq := obs.NewSequencer(sink, producers)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				o := seq.Producer(p)
				for r := 0; r < perProducer; r++ {
					o.Event(obs.Event{Kind: obs.KindMetricRound, Iter: p, Round: r})
				}
				seq.Done(p)
			}(p)
		}
		wg.Wait()
		if n := sink.overlaps.Load(); n != 0 {
			t.Fatalf("sink entered concurrently %d times", n)
		}
		if len(sink.seen) != producers*perProducer {
			t.Fatalf("sink saw %d events, want %d", len(sink.seen), producers*perProducer)
		}
		for k, got := range sink.seen {
			if want := [2]int{k / perProducer, k % perProducer}; got != want {
				t.Fatalf("trial %d: event %d is producer %d round %d, want producer %d round %d",
					trial, k, got[0], got[1], want[0], want[1])
			}
		}
	}
}

// TestJSONLSinkConcurrentEmitters shares one JSONL sink between
// goroutines, as htpd shares its trace file between concurrent jobs: every
// line must decode whole and none may be lost.
func TestJSONLSinkConcurrentEmitters(t *testing.T) {
	const (
		emitters   = 8
		perEmitter = 500
	)
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				sink.Event(obs.Event{Kind: obs.KindMetricRound, Iter: g + 1, Round: i + 1})
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d does not decode: %v\n%s", lines, err, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != emitters*perEmitter {
		t.Fatalf("sink wrote %d lines, want %d", lines, emitters*perEmitter)
	}
}

func TestCollectorConcurrentEmitAndMidStreamReads(t *testing.T) {
	const (
		emitters   = 8
		perEmitter = 400
	)
	c := obs.NewCollector()
	var wg sync.WaitGroup
	stopReads := make(chan struct{})
	// A reader hammers Report while emitters fold events in: Report must
	// return consistent snapshots, never racing the fold.
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
				rep := c.Report()
				if rep.Events < 0 {
					t.Error("negative event count")
					return
				}
			}
		}
	}()
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				switch i % 4 {
				case 0:
					c.Event(obs.Event{Kind: obs.KindMetricRound, Round: i})
				case 1:
					c.Event(obs.Event{Kind: obs.KindSpan, Phase: "metric", ElapsedMS: 0.25})
				case 2:
					c.Event(obs.Event{Kind: obs.KindRefinePass})
				case 3:
					c.Event(obs.Event{Kind: obs.KindSalvage})
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopReads)
	readerWg.Wait()

	rep := c.Report()
	if rep.Events != emitters*perEmitter {
		t.Fatalf("report folded %d events, want %d", rep.Events, emitters*perEmitter)
	}
	wantQuarter := emitters * perEmitter / 4
	if rep.RefinePasses != wantQuarter || rep.Salvages != wantQuarter {
		t.Fatalf("refines=%d salvages=%d, want %d each", rep.RefinePasses, rep.Salvages, wantQuarter)
	}
	if got, want := rep.PhaseMS["metric"], 0.25*float64(wantQuarter); got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("metric phase %.3fms, want %.3fms", got, want)
	}
}

// TestCollectorUnderMidStreamCancellation runs a real parallel metric
// computation whose context is cancelled mid-stream, with the Collector
// attached directly. The contract under test: wherever the cut lands, the
// computation returns, delivers its events one call at a time, and the
// collector folds every one of them.
func TestCollectorUnderMidStreamCancellation(t *testing.T) {
	var b hypergraph.Builder
	const n = 96
	b.AddUnitNodes(n)
	for i := 0; i < n; i++ {
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID((i+1)%n))
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID((i+7)%n))
	}
	h := b.MustBuild()
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 3, hierarchy.GeometricWeights(3, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}

	for _, cancelAfter := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
		c := obs.NewCollector()
		ctx, cancel := context.WithCancel(context.Background())
		if cancelAfter == 0 {
			cancel() // already-cancelled context: the earliest possible cut
		} else {
			timer := time.AfterFunc(cancelAfter, cancel)
			defer timer.Stop()
		}
		// Cancellation may or may not yield a partial metric; both are
		// valid. A run that started emits at least its metric-done.
		delivered := &serialSink{}
		m, _, _ := inject.ComputeMetricCtx(ctx, h, spec,
			inject.Options{Observer: obs.Multi(c, delivered), Workers: 4})
		cancel()
		rep := c.Report()
		if int64(rep.Events) != delivered.events.Load() {
			t.Fatalf("cancelAfter=%v: report folded %d events, %d delivered",
				cancelAfter, rep.Events, delivered.events.Load())
		}
		if m != nil && rep.Events == 0 {
			t.Fatalf("cancelAfter=%v: a started computation left no events", cancelAfter)
		}
		if n := delivered.overlaps.Load(); n != 0 {
			t.Fatalf("cancelAfter=%v: the run's sink was entered concurrently %d times", cancelAfter, n)
		}
	}
}
