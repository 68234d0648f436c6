package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// journalRecord is one line of the append-only JSONL job journal. Two
// operations exist: "submit" persists the full job spec (netlist included,
// so a recovered job re-runs from exactly what was admitted) and "state"
// records a lifecycle transition. The journal is the daemon's only
// persistent state: on restart, jobs whose last recorded state is
// non-terminal are re-validated and re-queued.
type journalRecord struct {
	Op    string    `json:"op"`
	ID    string    `json:"id"`
	Time  time.Time `json:"t"`
	State JobState  `json:"state,omitempty"`
	Stage string    `json:"stage,omitempty"`
	Stop  string    `json:"stop,omitempty"`
	Cost  float64   `json:"cost,omitempty"`
	Error string    `json:"error,omitempty"`
	Spec  *JobSpec  `json:"spec,omitempty"`
}

// journal appends JSONL records to a file, serializing writers. Each append
// is a single unbuffered write of one line, so a crash can truncate at most
// the final line — which replay tolerates — and every line that precedes it
// is intact.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal replays an existing journal at path (if any) and opens it for
// appending. A truncated or garbled trailing line — the signature of a
// crash mid-append — ends the replay without error and is cut off before
// the first append, which would otherwise glue its record onto the
// fragment; any malformed line earlier in the file is reported, since
// that means real corruption.
func openJournal(path string) (*journal, []journalRecord, error) {
	var records []journalRecord
	keep := 0
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh journal.
	case err != nil:
		return nil, nil, fmt.Errorf("server: reading journal: %w", err)
	default:
		records, keep, err = replayJournal(data)
		if err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening journal: %w", err)
	}
	if keep < len(data) {
		err = f.Truncate(int64(keep))
	}
	if err == nil && keep > 0 && data[keep-1] != '\n' {
		// The last record decoded but lost its newline.
		_, err = f.Write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: repairing journal tail: %w", err)
	}
	return &journal{f: f}, records, nil
}

// replayJournal decodes the journal bytes line by line. keep is the length
// of the prefix that ends with the last record decoded.
func replayJournal(data []byte) (records []journalRecord, keep int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	end := 0 // offset just past the line last scanned
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		end += advance
		return advance, token, err
	})
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			// A garbled final line is the crash-mid-append case; anything
			// before the end is corruption the operator must see.
			if isLastLine(data, line) {
				break
			}
			return nil, 0, fmt.Errorf("server: journal line %d corrupt: %w", line, err)
		}
		records = append(records, rec)
		keep = end
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("server: scanning journal: %w", err)
	}
	return records, keep, nil
}

// isLastLine reports whether lineNo is the final (possibly unterminated)
// line of data.
func isLastLine(data []byte, lineNo int) bool {
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++ // unterminated trailer counts as a line
	}
	return lineNo >= n
}

// append writes one record as a single line. Errors are returned, not
// fatal: the daemon keeps serving with a sick journal (it degrades to
// non-durable), but every append error is surfaced to the caller's log.
func (jl *journal) append(rec journalRecord) error {
	if jl == nil {
		return nil
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: journal marshal: %w", err)
	}
	data = append(data, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	_, err = jl.f.Write(data)
	return err
}

// Close releases the journal file.
func (jl *journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}
