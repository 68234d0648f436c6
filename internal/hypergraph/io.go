package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The text format is an extended hMETIS netlist:
//
//	% comments start with '%'
//	<#nets> <#nodes> [fmt]
//	<net lines: capacity? pin pin pin ...>   (pins are 1-based node numbers)
//	<node size lines, one per node>          (present when fmt includes 10)
//
// fmt semantics follow hMETIS: 1 = nets have capacities (first number on each
// net line), 10 = nodes have sizes (trailing block), 11 = both. Absent
// weights default to 1. Blank and whitespace-only lines are skipped anywhere;
// repeated pins within a net line are canonicalized to their first occurrence
// (a net still needs >= 2 distinct pins); content after the declared records
// is an error.

// Write serializes the hypergraph in the extended hMETIS format.
func (h *Hypergraph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hasCaps := false
	for _, c := range h.netCaps {
		if c != 1 {
			hasCaps = true
			break
		}
	}
	hasSizes := false
	for _, s := range h.nodeSizes {
		if s != 1 {
			hasSizes = true
			break
		}
	}
	format := 0
	if hasCaps {
		format += 1
	}
	if hasSizes {
		format += 10
	}
	if format != 0 {
		fmt.Fprintf(bw, "%d %d %d\n", h.NumNets(), h.NumNodes(), format)
	} else {
		fmt.Fprintf(bw, "%d %d\n", h.NumNets(), h.NumNodes())
	}
	for e := 0; e < h.NumNets(); e++ {
		if hasCaps {
			fmt.Fprintf(bw, "%g", h.netCaps[e])
			for _, v := range h.Pins(NetID(e)) {
				fmt.Fprintf(bw, " %d", v+1)
			}
		} else {
			for i, v := range h.Pins(NetID(e)) {
				if i > 0 {
					bw.WriteByte(' ')
				}
				fmt.Fprintf(bw, "%d", v+1)
			}
		}
		bw.WriteByte('\n')
	}
	if hasSizes {
		for v := 0; v < h.NumNodes(); v++ {
			fmt.Fprintf(bw, "%d\n", h.nodeSizes[v])
		}
	}
	return bw.Flush()
}

// WriteFile serializes the hypergraph to path.
func (h *Hypergraph) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := h.Write(f); err != nil {
		return err
	}
	return f.Sync()
}

// MaxDeclaredCount bounds the node and net counts a netlist header may
// declare — a sanity limit three orders of magnitude above the largest
// benchmark this repository handles. The reader sizes nothing from the
// declared counts: its storage grows with the records it reads, so a
// hostile (or truncated) header costs no more than its own bytes.
const MaxDeclaredCount = 1 << 22

// ReadFrom parses a hypergraph in the extended hMETIS format.
func ReadFrom(r io.Reader) (*Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	next := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "%") {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("hypergraph: missing header: %w", err)
	}
	if len(header) < 2 || len(header) > 3 {
		return nil, fmt.Errorf("hypergraph: malformed header %q", strings.Join(header, " "))
	}
	numNets, err := strconv.Atoi(header[0])
	if err != nil || numNets < 0 || numNets > MaxDeclaredCount {
		return nil, fmt.Errorf("hypergraph: bad net count %q", header[0])
	}
	numNodes, err := strconv.Atoi(header[1])
	if err != nil || numNodes < 0 || numNodes > MaxDeclaredCount {
		return nil, fmt.Errorf("hypergraph: bad node count %q", header[1])
	}
	format := 0
	if len(header) == 3 {
		format, err = strconv.Atoi(header[2])
		if err != nil || (format != 0 && format != 1 && format != 10 && format != 11) {
			return nil, fmt.Errorf("hypergraph: bad format %q", header[2])
		}
	}
	hasCaps := format == 1 || format == 11
	hasSizes := format == 10 || format == 11

	// A header alone must not buy an allocation: nets and node sizes go
	// into the builder as their lines are read, and unit-size nodes are
	// added only once every record has parsed.
	b := NewBuilder()
	// stamp[v] is 1 + the last net that listed v, grown to the largest pin
	// seen so far.
	var stamp []int32
	for e := 0; e < numNets; e++ {
		fields, err := next()
		if err != nil {
			return nil, fmt.Errorf("hypergraph: net %d: %w", e+1, err)
		}
		capacity := 1.0
		if hasCaps {
			capacity, err = strconv.ParseFloat(fields[0], 64)
			if err != nil || !(capacity >= 0) || math.IsInf(capacity, 1) {
				// !(cap >= 0) also catches NaN, which ParseFloat accepts and
				// a plain `< 0` check would wave through.
				return nil, fmt.Errorf("hypergraph: net %d: bad capacity %q", e+1, fields[0])
			}
			fields = fields[1:]
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("hypergraph: net %d has %d pins, need >= 2", e+1, len(fields))
		}
		// Real benchmark files repeat pins (a cell wired to a net twice);
		// canonicalize by keeping the first occurrence of each.
		first := len(b.pins)
		for _, f := range fields {
			pin, err := strconv.Atoi(f)
			if err != nil || pin < 1 || pin > numNodes {
				return nil, fmt.Errorf("hypergraph: net %d: bad pin %q", e+1, f)
			}
			id := NodeID(pin - 1)
			if int(id) >= len(stamp) {
				stamp = append(stamp, make([]int32, int(id)+1-len(stamp))...)
			}
			if stamp[id] == int32(e+1) {
				continue
			}
			stamp[id] = int32(e + 1)
			b.pins = append(b.pins, id)
		}
		if distinct := len(b.pins) - first; distinct < 2 {
			return nil, fmt.Errorf("hypergraph: net %d has %d distinct pins, need >= 2", e+1, distinct)
		}
		b.endNet("", capacity)
	}
	if hasSizes {
		for v := 0; v < numNodes; v++ {
			fields, err := next()
			if err != nil {
				return nil, fmt.Errorf("hypergraph: node size %d: %w", v+1, err)
			}
			if len(fields) != 1 {
				return nil, fmt.Errorf("hypergraph: node %d: size line has %d fields, want 1", v+1, len(fields))
			}
			s, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil || s <= 0 {
				return nil, fmt.Errorf("hypergraph: node %d: bad size %q", v+1, fields[0])
			}
			b.AddNode("", s)
		}
	}
	// Anything after the declared records is not format-conforming; a count
	// mismatch silently ignored here would shear pins off the instance.
	if extra, err := next(); err == nil {
		return nil, fmt.Errorf("hypergraph: trailing content %q after %d nets and %d node sizes",
			strings.Join(extra, " "), numNets, numNodes)
	} else if err != io.EOF {
		return nil, err
	}
	if !hasSizes {
		b.reserve(numNodes, 0, 0)
		b.AddUnitNodes(numNodes)
	}
	return b.Build()
}

// ReadFile parses a hypergraph from path.
func ReadFile(path string) (*Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
