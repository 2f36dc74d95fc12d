package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/alya"
	"repro/internal/resultdb"
)

// fig2TraceOpt is a small fig2 sweep with tracing into dir.
func fig2TraceOpt(dir string) Options {
	return Options{
		Parallelism: 4,
		Case:        tinyCase(alya.ArteryCFDCTEPower()),
		NodePoints:  []int{2, 4},
		TraceDir:    dir,
	}
}

// readTraces returns the trace files in dir keyed by name.
func readTraces(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestTraceDirPerCellDeterministic is the tracer's contract: one valid
// Chrome Trace JSON plus one attribution profile per simulated cell,
// byte-identical across runs, with the figure itself unchanged by
// tracing.
func TestTraceDirPerCellDeterministic(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	res1, err := Fig2(fig2TraceOpt(dir1))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Fig2(fig2TraceOpt(dir2))
	if err != nil {
		t.Fatal(err)
	}

	plainOpt := fig2TraceOpt("")
	plain, err := Fig2(plainOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, plain) {
		t.Fatalf("tracing changed the figure:\n%+v\n%+v", res1, plain)
	}
	var a, b bytes.Buffer
	res1.Render(&a)
	plain.Render(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("tracing changed rendered output:\n%s\n---\n%s", a.String(), b.String())
	}

	t1, t2 := readTraces(t, dir1), readTraces(t, dir2)
	// Fig2 at 2 node points: 3 build-technique variants × 2 points,
	// each writing a trace and an attribution profile.
	if len(t1) != 12 {
		names := make([]string, 0, len(t1))
		for n := range t1 { //lint:allow maporder -- sorted below for the error message
			names = append(names, n)
		}
		sort.Strings(names)
		t.Fatalf("run 1 wrote %d artifacts, want 12: %v", len(t1), names)
	}
	if len(t2) != len(t1) {
		t.Fatalf("runs wrote different artifact counts: %d vs %d", len(t1), len(t2))
	}
	traces, profiles := 0, 0
	for name, data := range t1 { //lint:allow maporder -- only compares per-name, no ordered output
		if !bytes.Equal(data, t2[name]) {
			t.Fatalf("artifact %s differs between runs", name)
		}
		switch {
		case strings.HasSuffix(name, ".trace.json"):
			traces++
			if !resultdb.ValidKey(strings.TrimSuffix(name, ".trace.json")) {
				t.Fatalf("trace name %q is not <fingerprint>.trace.json", name)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("trace %s is not valid JSON: %v", name, err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatalf("trace %s is empty", name)
			}
		case strings.HasSuffix(name, ".profile.json"):
			profiles++
			if !resultdb.ValidKey(strings.TrimSuffix(name, ".profile.json")) {
				t.Fatalf("profile name %q is not <fingerprint>.profile.json", name)
			}
		default:
			t.Fatalf("unexpected artifact %q", name)
		}
	}
	if traces != 6 || profiles != 6 {
		t.Fatalf("wrote %d traces and %d profiles, want 6 each", traces, profiles)
	}
	_ = res2
}

// TestTracedCellArtifactsPinned pins one real cell's traced artifacts
// across commits: the sha256 of the Chrome trace and of the attribution
// profile a small fig2 cell writes. The trace literal was printed at
// commit 6efdaf5, before the observer became an event log; the profile
// literal was re-printed when the profile dropped its resource-wait
// category, which no event produced. Both were re-printed when the
// model took the solvers' step skeleton. The profile embeds the cell
// key, so it also moves when a model table's shape does (the key
// JSON-encodes the cluster) and moved when the key took in the cell's
// model slice; with the old key substituted back, the file hashes to
// the old literal. They change only if the cell's schedule,
// its key, the trace format or the attribution does.
func TestTracedCellArtifactsPinned(t *testing.T) {
	dir := t.TempDir()
	opt := fig2TraceOpt(dir)
	opt.NodePoints = []int{2}
	sp := Fig2Specs(opt)[0]
	if _, err := NewSweep(opt).Run([]CellSpec{sp}); err != nil {
		t.Fatal(err)
	}
	key, err := sp.Key()
	if err != nil {
		t.Fatal(err)
	}
	for suffix, want := range map[string]string{ //lint:allow maporder -- independent per-file checks
		".trace.json":   "8c25229a239888f0a48444f6e31087819a336526668014f8c157ede05c495b5d",
		".profile.json": "0c57f11362a93f0a6bb5f60de4f06d159aa23b43cb628934735e8c979cdcd30e",
	} {
		data, err := os.ReadFile(filepath.Join(dir, key+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s%s: sha256 %s, want %s", sp.Label, suffix, got, want)
		}
	}
}

// TestTraceDirSkipsRestoredCells: a warm sweep replays from the store
// and simulates nothing, so it writes no traces.
func TestTraceDirSkipsRestoredCells(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opt := fig2TraceOpt(t.TempDir())
	opt.Store = store
	if _, err := Fig2(opt); err != nil {
		t.Fatal(err)
	}
	warmDir := t.TempDir()
	warm := fig2TraceOpt(warmDir)
	warm.Store = store
	warmStats := &SweepStats{}
	warm.Stats = warmStats
	if _, err := Fig2(warm); err != nil {
		t.Fatal(err)
	}
	if n := warmStats.Computed.Load(); n != 0 {
		t.Fatalf("warm run simulated %d cells", n)
	}
	if traces := readTraces(t, warmDir); len(traces) != 0 {
		t.Fatalf("warm run wrote %d traces, want 0", len(traces))
	}
}

// TestTraceArtifactsIndependentOfStore: the traces and profiles a cold
// traced run writes are byte-identical whether or not a store is
// attached — attribution is a pure function of the simulation, so
// analyze output cannot depend on cache state.
func TestTraceArtifactsIndependentOfStore(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	storedDir, plainDir := t.TempDir(), t.TempDir()
	stored := fig2TraceOpt(storedDir)
	stored.Store = store
	if _, err := Fig2(stored); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig2(fig2TraceOpt(plainDir)); err != nil {
		t.Fatal(err)
	}
	a, b := readTraces(t, storedDir), readTraces(t, plainDir)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("artifact counts differ: %d with store, %d without", len(a), len(b))
	}
	for name, data := range a { //lint:allow maporder -- per-name comparison, no ordered output
		if !bytes.Equal(data, b[name]) {
			t.Fatalf("artifact %s depends on store state", name)
		}
	}
}

// TestProgressEvents: every produced cell reports exactly one event,
// cached cells flagged as such, with Done covering 1..Total.
func TestProgressEvents(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	var mu sync.Mutex
	var events []ProgressEvent
	opt := Options{
		Parallelism: 4,
		Case:        tinyCase(alya.ArteryCFDCTEPower()),
		NodePoints:  []int{2, 4},
		Store:       store,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	}
	check := func(run string, wantCached bool) {
		mu.Lock()
		got := events
		events = nil
		mu.Unlock()
		if len(got) != 6 {
			t.Fatalf("%s run: %d events, want 6", run, len(got))
		}
		seen := make([]bool, len(got)+1)
		for _, ev := range got {
			if ev.Total != 6 || ev.Done < 1 || ev.Done > 6 || seen[ev.Done] {
				t.Fatalf("%s run: bad event %+v", run, ev)
			}
			seen[ev.Done] = true
			if ev.Cached != wantCached {
				t.Fatalf("%s run: event %+v, want cached=%v", run, ev, wantCached)
			}
			if ev.Label == "" {
				t.Fatalf("%s run: event with empty label", run)
			}
		}
	}
	if _, err := Fig2(opt); err != nil {
		t.Fatal(err)
	}
	check("cold", false)
	if _, err := Fig2(opt); err != nil {
		t.Fatal(err)
	}
	check("warm", true)
}
