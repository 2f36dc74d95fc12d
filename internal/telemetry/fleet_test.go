package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readJournalFile reads the single *.fleetlog.jsonl under dir.
func readJournalFile(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.fleetlog.jsonl"))
	if err != nil {
		return "", err
	}
	if len(paths) != 1 {
		return "", fmt.Errorf("want exactly one journal, got %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	return string(data), err
}

// tickClock is a deterministic journal clock: starts at base and
// advances by step on every read.
func tickClock(base, step int64) func() int64 {
	now := base - step
	return func() int64 {
		now += step
		return now
	}
}

// GoldenFleetJournal is the pinned journal wire form; exported so the
// external Chrome golden (chrome_test.go) feeds the same bytes through
// internal/fleettrace.
const GoldenFleetJournal = `{"proc":"w-a","seq":1,"kind":"span","name":"claim","span":"w-a#1","start_ns":1000,"end_ns":1010,"outcome":"ok","label":"claim","detail":"POST /v1/work/claim: 200"}
{"proc":"w-a","seq":2,"kind":"point","name":"requeue","parent":"w-a#1","trace":"w-a","start_ns":1020,"outcome":"requeued","label":"L1"}
`

// TestFleetJournalGoldenJSONL pins the journal's wire bytes: field
// order, omitempty behaviour, and sequence numbering. A diff here is a
// schema change — deliberate ones must update the golden lines AND the
// README's schema table.
func TestFleetJournalGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewFleetJournal(&buf, "w-a", tickClock(1_000, 10))
	start := j.Now()
	j.Emit(FleetEvent{
		Kind: FleetSpan, Name: "claim", Span: j.NewSpan(),
		StartNs: start, EndNs: j.Now(), Outcome: "ok",
		Label: "claim", Detail: "POST /v1/work/claim: 200",
	})
	j.Emit(FleetEvent{
		Kind: FleetPoint, Name: "requeue", Parent: "w-a#1", Trace: "w-a",
		StartNs: j.Now(), Outcome: "requeued", Label: "L1",
	})
	if want := GoldenFleetJournal; buf.String() != want {
		t.Fatalf("journal bytes drifted from the golden schema:\ngot:\n%swant:\n%s", buf.String(), want)
	}
	if j.Drops() != 0 {
		t.Fatalf("drops = %d on a healthy writer", j.Drops())
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

// TestFleetJournalCountsDrops: a failing writer loses events without
// failing the operation, and the loss is visible both on Drops() and on
// the mirrored metrics counter.
func TestFleetJournalCountsDrops(t *testing.T) {
	j := NewFleetJournal(&errWriter{n: 1}, "w-a", tickClock(0, 1))
	reg := NewRegistry()
	j.CountDropsIn(reg)
	j.Emit(FleetEvent{Kind: FleetPoint, Name: "a", StartNs: j.Now()})
	j.Emit(FleetEvent{Kind: FleetPoint, Name: "b", StartNs: j.Now()})
	j.Emit(FleetEvent{Kind: FleetPoint, Name: "c", StartNs: j.Now()})
	if j.Drops() != 2 {
		t.Fatalf("drops = %d, want 2", j.Drops())
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fleet_journal_dropped_events_total 2") {
		t.Fatalf("drop counter not scrapeable:\n%s", sb.String())
	}
}

// TestFleetJournalNilSafety: every method is a no-op on nil, so call
// sites journal unconditionally.
func TestFleetJournalNilSafety(t *testing.T) {
	var j *FleetJournal
	if j.Proc() != "" || j.Now() != 0 || j.NewSpan() != "" || j.Drops() != 0 {
		t.Fatal("nil journal returned non-zero values")
	}
	j.Emit(FleetEvent{Kind: FleetPoint, Name: "x"})
	j.CountDropsIn(NewRegistry())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFleetJournalAppendsAndSanitizes: reopening extends the same
// file, and hostile process names cannot escape the journal directory.
func TestOpenFleetJournalAppendsAndSanitizes(t *testing.T) {
	dir := t.TempDir()
	j1, err := OpenFleetJournal(dir, "host:1/bad name")
	if err != nil {
		t.Fatal(err)
	}
	j1.Emit(FleetEvent{Kind: FleetPoint, Name: "a", StartNs: j1.Now()})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenFleetJournal(dir, "host:1/bad name")
	if err != nil {
		t.Fatal(err)
	}
	j2.Emit(FleetEvent{Kind: FleetPoint, Name: "b", StartNs: j2.Now()})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := readJournalFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(data, "\n"); got != 2 {
		t.Fatalf("reopened journal holds %d lines, want 2 (append, not truncate):\n%s", got, data)
	}
	// Both events carry the original (unsanitized) process identity.
	if strings.Count(data, `"proc":"host:1/bad name"`) != 2 {
		t.Fatalf("proc identity mangled:\n%s", data)
	}
}
