package registry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resultdb"
)

// getBody fetches a path from the test server.
func getBody(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(data)
}

// TestFleetStatusAggregatesWorkers drives a coordinator through two
// workers' claims, heartbeats, and completions, and asserts the fleet
// view on GET /v1/status: per-worker progress as last reported, totals
// folding every worker, and the per-worker metric families on
// /v1/metrics.
func TestFleetStatusAggregatesWorkers(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	clock := newFakeClock()
	q := NewWorkQueue(cellsNamed("g", "k1", "k2", "k3", "k4"), QueueOptions{
		Study: "fig2", BatchSize: 2, Clock: clock.Now,
	})
	ts := httptest.NewServer(NewServer(store, ServerOptions{Work: q}))
	defer ts.Close()

	// w1 claims a batch and heartbeats progress mid-lease; w2 claims the
	// other batch and reports its summary only at completion (the
	// fast-batch path).
	l1, _, _, _ := q.Claim("w1")
	l2, _, _, _ := q.Claim("w2")
	if l1 == nil || l2 == nil {
		t.Fatal("claims not granted")
	}
	c, err := Dial(ts.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hb := WorkerProgress{Cells: 1, Simulated: 1, VirtualSeconds: 100.5, CommSeconds: 25.25}
	if worker, ok, _ := q.HeartbeatFrom(l1.ID, &hb, ""); !ok || worker != "w1" {
		t.Fatalf("heartbeat: worker=%q ok=%v", worker, ok)
	}
	fin := WorkerProgress{Cells: 2, Failures: 1, Simulated: 1, Replayed: 1, VirtualSeconds: 50, CommSeconds: 10}
	if ok, err := c.CompleteWork(l2.ID, true, "one cell failed", &fin); !ok || err != nil {
		t.Fatalf("complete: ok=%v err=%v", ok, err)
	}

	code, ct, body := getBody(t, ts.URL, "/v1/status")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("GET /v1/status: HTTP %d, Content-Type %q", code, ct)
	}
	var fs FleetStatus
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatalf("undecodable status: %v\n%s", err, body)
	}
	if fs.Schema != resultdb.SchemaVersion {
		t.Errorf("schema = %q, want %q", fs.Schema, resultdb.SchemaVersion)
	}
	if fs.Work == nil || fs.Work.Study != "fig2" || fs.Work.TotalCells != 4 {
		t.Fatalf("work = %+v", fs.Work)
	}
	if len(fs.Workers) != 2 || fs.Workers[0].Name != "w1" || fs.Workers[1].Name != "w2" {
		t.Fatalf("workers = %+v", fs.Workers)
	}
	if w1 := fs.Workers[0]; w1.Progress != hb || w1.Lease != l1.ID || w1.LeaseCells != 2 || w1.Batches != 1 {
		t.Errorf("w1 = %+v, want progress %+v on lease %s", w1, hb, l1.ID)
	}
	if w2 := fs.Workers[1]; w2.Progress != fin || w2.Lease != "" {
		t.Errorf("w2 = %+v, want settled lease with progress %+v", w2, fin)
	}
	wantTotals := WorkerProgress{Cells: 3, Failures: 1, Simulated: 2, Replayed: 1, VirtualSeconds: 150.5, CommSeconds: 35.25}
	if fs.Totals != wantTotals {
		t.Errorf("totals = %+v, want %+v", fs.Totals, wantTotals)
	}

	// The HTML page renders both workers without any scripts.
	code, ct, page := getBody(t, ts.URL, "/")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("GET /: HTTP %d, Content-Type %q", code, ct)
	}
	for _, want := range []string{"w1", "w2", "fig2"} {
		if !strings.Contains(page, want) {
			t.Errorf("status page lacks %q", want)
		}
	}
	if strings.Contains(page, "<script") {
		t.Error("status page embeds a script; it must stay zero-dependency static HTML")
	}

	// Per-worker gauges follow the last snapshot reported over the wire
	// (the direct q.HeartbeatFrom above never reached the server, so w1's
	// gauges appear only after this wire heartbeat).
	l3, err := c.ClaimWork("w1")
	if err != nil || l3.Lease == nil {
		t.Fatalf("claim: lease=%+v err=%v", l3, err)
	}
	hb2 := WorkerProgress{Cells: 2, Simulated: 2, VirtualSeconds: 200, CommSeconds: 50}
	if alive, err := c.HeartbeatWork(l3.Lease.ID, &hb2); !alive || err != nil {
		t.Fatalf("heartbeat: alive=%v err=%v", alive, err)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`registry_worker_cells{kind="simulated",worker="w1"} 2`,
		`registry_worker_failures{worker="w1"} 0`,
		`registry_worker_virtual_seconds{worker="w1"} 200`,
		`registry_worker_comm_seconds{worker="w1"} 50`,
		`registry_worker_cells{kind="replayed",worker="w2"} 1`,
		`registry_worker_failures{worker="w2"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape lacks %q:\n%s", want, text)
		}
	}
}

// TestStatusStaleWorkerHighlight: a worker silent for over three
// heartbeat intervals while the sweep is still running is flagged
// stale in the JSON snapshot and highlighted on the HTML page; once
// the sweep is done, silence is legitimate and nothing is flagged.
func TestStatusStaleWorkerHighlight(t *testing.T) {
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	clock := newFakeClock()
	q := NewWorkQueue(cellsNamed("g", "k1", "k2"), QueueOptions{
		Study: "fig2", BatchSize: 1, LeaseTTL: 30 * time.Minute, Heartbeat: time.Minute, Clock: clock.Now,
	})
	ts := httptest.NewServer(NewServer(store, ServerOptions{Work: q}))
	defer ts.Close()

	// "stalled" finishes its batch, then goes silent for five heartbeat
	// intervals while "fresh" is still working.
	l1, _, _, _ := q.Claim("stalled")
	if l1 == nil {
		t.Fatal("claim not granted")
	}
	if _, ok, _ := q.Complete(l1.ID, false, nil); !ok {
		t.Fatal("complete rejected")
	}
	clock.Advance(5 * time.Minute)
	if l2, _, _, _ := q.Claim("fresh"); l2 == nil {
		t.Fatal("second claim not granted")
	}
	var fs FleetStatus
	_, _, body := getBody(t, ts.URL, "/v1/status")
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatal(err)
	}
	byName := map[string]WorkerStatus{}
	for _, w := range fs.Workers {
		byName[w.Name] = w
	}
	if !byName["stalled"].Stale || byName["fresh"].Stale {
		t.Fatalf("staleness misattributed: %+v", fs.Workers)
	}
	_, _, page := getBody(t, ts.URL, "/")
	if !strings.Contains(page, `class="stale"`) || !strings.Contains(page, "stalled?") {
		t.Fatalf("status page does not highlight the stale worker:\n%s", page)
	}

	// "fresh" drains the sweep; the old silence no longer means stall.
	st, workers, _ := q.Fleet()
	lease := ""
	for _, w := range workers {
		if w.Name == "fresh" {
			lease = w.Lease
		}
	}
	if _, ok, _ := q.Complete(lease, false, nil); !ok {
		t.Fatal("final complete rejected")
	}
	if st, _, _ = q.Fleet(); !st.Done {
		t.Fatalf("sweep not done: %+v", st)
	}
	_, _, body = getBody(t, ts.URL, "/v1/status")
	if strings.Contains(body, `"stale":true`) {
		t.Fatalf("worker flagged stale after the sweep finished:\n%s", body)
	}
	_, _, page = getBody(t, ts.URL, "/")
	if strings.Contains(page, "stalled?") {
		t.Fatalf("stale highlight survives a finished sweep:\n%s", page)
	}
}

// TestStatusWithoutQueue: a plain cache serves /v1/status with no work
// section and an HTML page that says so.
func TestStatusWithoutQueue(t *testing.T) {
	_, ts, _ := newRegistry(t)
	code, _, body := getBody(t, ts.URL, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/status: HTTP %d", code)
	}
	var fs FleetStatus
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Work != nil || len(fs.Workers) != 0 {
		t.Fatalf("cache-only status claims sweep state: %+v", fs)
	}
	code, _, page := getBody(t, ts.URL, "/")
	if code != http.StatusOK || !strings.Contains(page, "not coordinating a sweep") {
		t.Fatalf("GET /: HTTP %d\n%s", code, page)
	}
}
