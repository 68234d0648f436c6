package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// metricKind selects the exposition TYPE line and render shape.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindHistogramVec
)

// family is one registered metric: a name, help text, and exactly one of
// the concrete instruments.
type family struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	vec        *HistogramVec
	vecLabel   string
}

// A Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration takes a lock; recording on the
// returned instruments never does. Families render in registration
// order so /metrics output is stable across scrapes.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// Default is the process-wide registry. The solver's counters
// (internal/obs) and htpd's instruments register into it; htpd serves it
// at /metrics and htpart and experiments write it with -metrics-dump, so
// the service and the batch tools share one metrics vocabulary.
var Default = NewRegistry()

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.index[f.name]; ok {
		if prev.kind != f.kind {
			panic("metrics: " + f.name + " re-registered with a different kind")
		}
		*f = *prev
		return
	}
	r.index[f.name] = f
	r.fams = append(r.fams, f)
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	f := &family{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	r.add(f)
	return f.counter
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := &family{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	r.add(f)
	return f.gauge
}

// Histogram registers (or returns the existing) histogram under name.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := &family{name: name, help: help, kind: kindHistogram, hist: NewHistogram(bounds)}
	r.add(f)
	return f.hist
}

// HistogramVec registers (or returns the existing) labelled histogram
// family under name, partitioned by the single label labelName.
func (r *Registry) HistogramVec(name, help, labelName string, bounds []float64) *HistogramVec {
	f := &family{name: name, help: help, kind: kindHistogramVec,
		vec: NewHistogramVec(bounds), vecLabel: labelName}
	r.add(f)
	return f.vec
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4): # HELP / # TYPE headers, cumulative
// _bucket{le="..."} series, _sum and _count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", f.name, f.name, f.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", f.name, f.name, fmtFloat(f.gauge.Value()))
		case kindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", f.name)
			writeHistogram(&b, f.name, "", "", f.hist.Snapshot())
		case kindHistogramVec:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", f.name)
			for _, l := range f.vec.Labels() {
				writeHistogram(&b, f.name, f.vecLabel, l, f.vec.With(l).Snapshot())
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(b *strings.Builder, name, label, value string, s HistogramSnapshot) {
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = fmtFloat(s.Bounds[i])
		}
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(label, value), le, cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelSuffix(label, value), fmtFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelSuffix(label, value), cum)
}

func labelPrefix(label, value string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf("%s=%q,", label, escapeLabel(value))
}

func labelSuffix(label, value string) string {
	if label == "" {
		return ""
	}
	return fmt.Sprintf("{%s=%q}", label, escapeLabel(value))
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
