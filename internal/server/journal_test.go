package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jl, records, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(records))
	}
	spec := JobSpec{Netlist: "2 3\n1 2\n2 3\n", Height: 2, Seed: 9}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jl.append(journalRecord{Op: "submit", ID: "j-000001", Spec: &spec, State: StateQueued}))
	must(jl.append(journalRecord{Op: "state", ID: "j-000001", State: StateRunning}))
	must(jl.append(journalRecord{Op: "state", ID: "j-000001", State: StateDone, Stage: "flow", Stop: "converged", Cost: 3.5}))
	must(jl.Close())

	_, records, err = openJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(records) != 3 {
		t.Fatalf("replayed %d records, want 3", len(records))
	}
	if records[0].Spec == nil || records[0].Spec.Seed != 9 {
		t.Fatalf("submit record lost the spec: %+v", records[0])
	}
	if records[2].State != StateDone || records[2].Cost != 3.5 {
		t.Fatalf("terminal record mangled: %+v", records[2])
	}
}

func TestJournalToleratesGarbledFinalLine(t *testing.T) {
	// A crash mid-append leaves a truncated trailer; replay must shrug it
	// off and keep every intact line.
	data := `{"op":"submit","id":"j-000001","spec":{"netlist":"x"}}
{"op":"state","id":"j-000001","state":"running"}
{"op":"state","id":"j-0000`
	records, _, err := replayJournal([]byte(data))
	if err != nil {
		t.Fatalf("replay with truncated trailer: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(records))
	}
}

func TestJournalTornTailSurvivesTwoRestarts(t *testing.T) {
	// The restart after a crash mid-append must cut the torn line off
	// before it appends: a record glued onto the fragment becomes a corrupt
	// line mid-file, and the restart after that refuses to start.
	good := `{"op":"submit","id":"a","spec":{"netlist":"x"}}` + "\n"
	cases := []struct {
		name, tail string
		replayed   int
	}{
		{"unterminated fragment", `{"op":"state","id":"b"`, 1},
		{"terminated fragment", `{"op":"state","id":"b"` + "\n", 1},
		{"record without newline", `{"op":"state","id":"a","state":"running"}`, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.jsonl")
			if err := os.WriteFile(path, []byte(good+tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			jl, records, err := openJournal(path)
			if err != nil {
				t.Fatalf("restart 1: %v", err)
			}
			if len(records) != tc.replayed {
				t.Fatalf("restart 1 replayed %d records, want %d", len(records), tc.replayed)
			}
			for _, st := range []JobState{StateRunning, StateDone} {
				if err := jl.append(journalRecord{Op: "state", ID: "a", State: st}); err != nil {
					t.Fatal(err)
				}
			}
			if err := jl.Close(); err != nil {
				t.Fatal(err)
			}
			jl, records, err = openJournal(path)
			if err != nil {
				t.Fatalf("restart 2: %v", err)
			}
			defer jl.Close()
			if len(records) != tc.replayed+2 || records[len(records)-1].State != StateDone {
				t.Fatalf("restart 2 replayed %+v, want %d records ending in done", records, tc.replayed+2)
			}
		})
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	// Garbage before the final line is real corruption, not a crash
	// signature — the operator must see it.
	data := `{"op":"submit","id":"j-000001"}
NOT JSON AT ALL
{"op":"state","id":"j-000001","state":"done"}
`
	_, _, err := replayJournal([]byte(data))
	if err == nil {
		t.Fatal("mid-file corruption accepted silently")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %q does not locate the corrupt line", err)
	}
}

func TestRecoverySkipsInvalidatedSpecs(t *testing.T) {
	// A journaled job whose spec no longer validates (here: an unparsable
	// netlist) is dropped with a log line instead of wedging startup.
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	lines := `{"op":"submit","id":"j-000001","spec":{"netlist":"garbage netlist"}}
{"op":"submit","id":"j-000002","spec":{"netlist":"1 2\n1 2\n","height":1}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		_ = s.journal.Close()
		s.baseCancel()
	}()
	s.mu.Lock()
	n := len(s.jobs)
	_, badKept := s.jobs["j-000001"]
	_, goodKept := s.jobs["j-000002"]
	s.mu.Unlock()
	if n != 1 || badKept || !goodKept {
		t.Fatalf("recovery kept %d jobs (bad=%v good=%v), want only the valid one", n, badKept, goodKept)
	}
}
