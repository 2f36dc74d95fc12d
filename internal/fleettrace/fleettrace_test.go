package fleettrace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// writeJournal marshals events (Proc/Seq already set) as JSONL into
// dir/<name>.fleetlog.jsonl and returns the path.
func writeJournal(t *testing.T, dir, name string, events []telemetry.FleetEvent) string {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(data, '\n'))
	}
	path := filepath.Join(dir, name+".fleetlog.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// span builds one span event.
func span(proc string, seq int64, name, id, parent string, start, end int64) telemetry.FleetEvent {
	return telemetry.FleetEvent{
		Proc: proc, Seq: seq, Kind: telemetry.FleetSpan, Name: name,
		Span: id, Parent: parent, StartNs: start, EndNs: end, Outcome: "ok",
	}
}

// alignFixture builds a coordinator journal and one worker journal
// whose clock runs `off` nanoseconds ahead of the coordinator's: three
// symmetric request/response edges (exact θ) plus one edge with a slow
// inbound leg (asymmetric — the median must shrug it off).
func alignFixture(off int64) (coord, worker []telemetry.FleetEvent) {
	mk := func(k int64, inDelay int64) {
		t0 := 1_000_000 + 10_000*k // client send, coordinator clock
		t1 := t0 + inDelay         // server receive
		t2 := t1 + 2_000           // server reply
		t3 := t2 + 500             // client receive (outbound delay 500)
		id := "w-a#" + string(rune('0'+k))
		worker = append(worker, span("w-a", k+1, "claim", id, "", t0+off, t3+off))
		coord = append(coord, span("coordinator", k+1, "serve",
			"coordinator#"+string(rune('0'+k)), id, t1, t2))
	}
	for k := int64(0); k < 3; k++ {
		mk(k, 500) // symmetric: in = out = 500 → θ = −off exactly
	}
	mk(3, 9_500) // slow inbound leg: θ biased by (9500−500)/2
	return coord, worker
}

func TestAlignRecoversClockOffset(t *testing.T) {
	const off = 5_000_000 // worker clock 5 ms ahead
	coord, worker := alignFixture(off)
	dir := t.TempDir()
	writeJournal(t, dir, "coordinator", coord)
	writeJournal(t, dir, "w-a", worker)
	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.Reference != "coordinator" {
		t.Fatalf("reference = %q, want coordinator", run.Reference)
	}
	var wa *Proc
	for i := range run.Procs {
		if run.Procs[i].Name == "w-a" {
			wa = &run.Procs[i]
		}
	}
	if wa == nil {
		t.Fatalf("worker journal lost in merge: %+v", run.Procs)
	}
	if wa.Edges != 4 {
		t.Fatalf("edges = %d, want 4", wa.Edges)
	}
	// Four θs: three exact (−off) and one biased by the asymmetric
	// inbound leg; the even-count median averages the central pair, both
	// −off, so the estimate is exact despite the outlier.
	if wa.OffsetNs != -off {
		t.Fatalf("offset = %d, want %d", wa.OffsetNs, int64(-off))
	}
	// AlignNs maps a worker timestamp back onto the coordinator clock.
	if got := wa.AlignNs(1_000_000 + off); got != 1_000_000 {
		t.Fatalf("AlignNs = %d, want 1000000", got)
	}
	// The coordinator keeps its own clock.
	for i := range run.Procs {
		if run.Procs[i].Name == "coordinator" && run.Procs[i].OffsetNs != 0 {
			t.Fatalf("reference clock shifted: %+v", run.Procs[i])
		}
	}
}

func TestAlignWithoutServerJournal(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, "w-a", []telemetry.FleetEvent{
		span("w-a", 1, "claim", "w-a#1", "", 100, 200),
	})
	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.Reference != "" || run.Procs[0].OffsetNs != 0 {
		t.Fatalf("clientless merge invented a reference: %+v", run)
	}
}

// TestAttributionTilesExactly charges a hand-built worker timeline and
// checks the four categories tile the observed span to the nanosecond,
// with overlap resolved by priority (backoff > wire > simulate).
func TestAttributionTilesExactly(t *testing.T) {
	events := []telemetry.FleetEvent{
		span("w-a", 1, "claim", "w-a#1", "", 0, 100),          // wire
		span("w-a", 2, "lease", "L1", "w-a#1", 100, 800),      // structure: charges nothing
		span("w-a", 3, "simulate", "w-a#2", "L1", 100, 500),   // simulate
		span("w-a", 4, "heartbeat", "w-a#3", "", 200, 250),    // wire inside simulate: wire wins
		span("w-a", 5, "backoff", "w-a#4", "w-a#5", 600, 700), // backoff
		span("w-a", 6, "store-put", "w-a#5", "", 700, 800),    // wire
		span("w-a", 7, "claim", "w-a#6", "", 800, 1000),       // wire, but ...
		span("w-a", 8, "held", "", "", 850, 1000),             // ... the coordinator's hold is idle
	}
	run := &Run{Procs: []Proc{{Name: "w-a", Events: events}}}
	attrs, err := run.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	a := attrs[0]
	want := WorkerAttribution{
		Proc: "w-a", SpanNs: 1000,
		SimulateNs: 350, // [100,500] minus the heartbeat's [200,250]
		WireNs:     300, // [0,100] + [200,250] + [700,850]
		BackoffNs:  100, // [600,700]
		IdleNs:     250, // [500,600] + [850,1000]
		Cells:      1, Requests: 4,
	}
	if a != want {
		t.Fatalf("attribution = %+v, want %+v", a, want)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	broken := a
	broken.IdleNs++
	if err := broken.Validate(); err == nil {
		t.Fatal("broken partition validated")
	}
}

// TestMergeByteDeterminism: the same journal bytes — discovered in any
// path order, even with one process's events split across files — must
// produce byte-identical Chrome traces and identical attributions.
func TestMergeByteDeterminism(t *testing.T) {
	coord, worker := alignFixture(3_000_000)
	dir := t.TempDir()
	p1 := writeJournal(t, dir, "coordinator", coord)
	p2 := writeJournal(t, dir, "w-a", worker[:2])
	// The rest of w-a's events land in a second file (a restarted
	// worker appending under a different name would look like this).
	p3 := writeJournal(t, dir, "w-a.rest", worker[2:])

	runA, err := ReadFiles([]string{p1, p2, p3})
	if err != nil {
		t.Fatal(err)
	}
	runB, err := ReadFiles([]string{p3, p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	chromeA, err := runA.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	chromeB, err := runB.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chromeA, chromeB) {
		t.Fatalf("Chrome trace depends on discovery order:\nA: %s\nB: %s", chromeA, chromeB)
	}
	var sb1, sb2 strings.Builder
	attrsA, err := runA.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	attrsB, err := runB.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	RenderAttribution(&sb1, attrsA)
	RenderAttribution(&sb2, attrsB)
	if sb1.String() != sb2.String() {
		t.Fatalf("attribution depends on discovery order:\n%s\n%s", sb1.String(), sb2.String())
	}
	// The trace is valid Chrome Trace Event JSON with both tracks named.
	var decoded map[string]any
	if err := json.Unmarshal(chromeA, &decoded); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	text := string(chromeA)
	for _, want := range []string{`"process_name"`, `"coordinator"`, `"w-a"`, `"displayTimeUnit":"ms"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("Chrome trace lacks %s:\n%s", want, text)
		}
	}
}

// TestTornTailSkipped: a SIGKILLed worker's torn last line is skipped
// and counted, never fatal.
func TestTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, "w-a", []telemetry.FleetEvent{
		span("w-a", 1, "claim", "w-a#1", "", 100, 200),
	})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"proc":"w-a","seq":2,"kind":"span","na`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if run.SkippedLines != 1 || len(run.Procs[0].Events) != 1 {
		t.Fatalf("torn tail mishandled: %+v", run)
	}
	if !strings.Contains(run.Summary(), "1 torn lines skipped") {
		t.Fatalf("summary hides the torn tail: %s", run.Summary())
	}
}

func TestReadDirErrors(t *testing.T) {
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir read as a run")
	}
}

// TestDiffRuns pairs attributions by name and marks one-sided procs.
func TestDiffRuns(t *testing.T) {
	mk := func(proc string, simEnd int64) *Run {
		return &Run{Procs: []Proc{{Name: proc, Events: []telemetry.FleetEvent{
			span(proc, 1, "claim", proc+"#1", "", 0, 100),
			span(proc, 2, "simulate", proc+"#2", "", 100, simEnd),
		}}}}
	}
	a, b := mk("w-a", 500), mk("w-a", 900)
	b.Procs = append(b.Procs, Proc{Name: "w-b", Events: []telemetry.FleetEvent{
		span("w-b", 1, "claim", "w-b#1", "", 0, 50),
	}})
	diffs, err := DiffRuns(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 || diffs[0].Proc != "w-a" || diffs[1].Proc != "w-b" {
		t.Fatalf("diffs = %+v", diffs)
	}
	if !diffs[0].InA || !diffs[0].InB || diffs[1].InA || !diffs[1].InB {
		t.Fatalf("presence marks wrong: %+v", diffs)
	}
	if delta := diffs[0].B.SimulateNs - diffs[0].A.SimulateNs; delta != 400 {
		t.Fatalf("Δsimulate = %d, want 400", delta)
	}
	var sb strings.Builder
	RenderDiff(&sb, diffs)
	for _, want := range []string{"+400", "absent", "w-a", "w-b"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("diff table lacks %q:\n%s", want, sb.String())
		}
	}
}
