package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
)

// JSONLSink writes one JSON object per event to an io.Writer — the trace
// file format (`htpart -trace out.jsonl`). Output is buffered; call Flush
// when the run is done. Every method locks, so one sink may be shared by
// runs on several goroutines (htpd's daemon-wide trace): their lines
// interleave whole, and each emitter's events keep their order.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing JSON Lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Event encodes e as one JSON line. The first write error sticks and is
// reported by Err/Flush; later events are dropped rather than interleaving
// garbage into the trace.
func (s *JSONLSink) Event(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Flush writes buffered lines through and returns the first error seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// Err returns the first encode or write error, nil if none.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// SlogSink logs events through a *slog.Logger. High-frequency events
// (metric rounds, refinement passes) log at Debug; phase completions at
// Info; the terminal stop at Info. Attach a handler with the level you
// want (`htpart -log-level debug` shows everything).
type SlogSink struct {
	l *slog.Logger
}

// NewSlogSink returns a sink logging to l (slog.Default() when nil).
func NewSlogSink(l *slog.Logger) *SlogSink {
	if l == nil {
		l = slog.Default()
	}
	return &SlogSink{l: l}
}

// Event logs e with one attr per populated field.
func (s *SlogSink) Event(e Event) {
	level := slog.LevelInfo
	if e.Kind == KindMetricRound || e.Kind == KindRefinePass {
		level = slog.LevelDebug
	}
	attrs := make([]slog.Attr, 0, 12)
	if e.Iter != 0 {
		attrs = append(attrs, slog.Int("iter", e.Iter))
	}
	if e.Round != 0 {
		attrs = append(attrs, slog.Int("round", e.Round))
	}
	if e.Active != 0 {
		attrs = append(attrs, slog.Int("active", e.Active))
	}
	if e.Violations != 0 {
		attrs = append(attrs, slog.Int("violations", e.Violations))
	}
	if e.Injections != 0 {
		attrs = append(attrs, slog.Int("injections", e.Injections))
	}
	if e.TreeNets != 0 {
		attrs = append(attrs, slog.Int("tree_nets", e.TreeNets))
	}
	if e.MaxCongestion != 0 {
		attrs = append(attrs, slog.Float64("max_congestion", e.MaxCongestion))
	}
	if e.Cost != 0 {
		attrs = append(attrs, slog.Float64("cost", e.Cost))
	}
	if e.Phase != "" {
		attrs = append(attrs, slog.String("phase", e.Phase))
	}
	if e.Reason != "" {
		attrs = append(attrs, slog.String("reason", e.Reason))
	}
	if e.Kind == KindMetricDone {
		attrs = append(attrs, slog.Bool("converged", e.Converged))
	}
	if e.Salvaged {
		attrs = append(attrs, slog.Bool("salvaged", true))
	}
	if e.ElapsedMS != 0 {
		attrs = append(attrs, slog.Float64("elapsed_ms", e.ElapsedMS))
	}
	if e.Detail != "" {
		attrs = append(attrs, slog.String("detail", e.Detail))
	}
	s.l.LogAttrs(nil, level, string(e.Kind), attrs...)
}
