package registry

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alya"
	"repro/internal/experiments"
	"repro/internal/registry/chaostest"
	"repro/internal/resultdb"
)

// fig2TestOpt is a test-sized Fig2 configuration: 3 runtime variants ×
// 2 node points = 6 cells, one simulated step each.
func fig2TestOpt(store resultdb.Store, stats *experiments.SweepStats) experiments.Options {
	c := alya.ArteryCFDCTEPower()
	c.SimSteps = 1
	return experiments.Options{
		Parallelism: 4,
		Case:        c,
		NodePoints:  []int{4, 8},
		Store:       store,
		Stats:       stats,
	}
}

// renderFig2 flattens the figure to the bytes the CLI would emit.
func renderFig2(t *testing.T, res *experiments.GridResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	res.Render(&buf)
	return buf.Bytes()
}

// enumerateFig2 converts the test study into coordinator work units.
func enumerateFig2(t *testing.T) (cells []WorkCell, byKey map[string]experiments.CellSpec, stamp string) {
	t.Helper()
	specs := experiments.Fig2Specs(fig2TestOpt(nil, nil))
	byKey = make(map[string]experiments.CellSpec, len(specs))
	keys := make([]string, 0, len(specs))
	for _, sp := range specs {
		key, err := sp.Key()
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, WorkCell{Key: key, Label: sp.Label, Group: sp.DeployGroup()})
		byKey[key] = sp
		keys = append(keys, key)
	}
	stamp = WorkStamp("fig2", keys)
	return cells, byKey, stamp
}

// committedIn answers the queue's store consultation.
func committedIn(store *resultdb.DirStore) func(string) bool {
	return func(key string) bool {
		_, ok, err := store.Lookup(key)
		return err == nil && ok
	}
}

// coldFig2 computes the reference bytes without any store, once — the
// four integration tests compare against the same cold run.
var coldFig2Once struct {
	sync.Once
	bytes []byte
	err   error
}

func coldFig2(t *testing.T) []byte {
	t.Helper()
	c := &coldFig2Once
	c.Do(func() {
		res, err := experiments.Fig2(fig2TestOpt(nil, nil))
		if err != nil {
			c.err = err
			return
		}
		var buf bytes.Buffer
		res.Render(&buf)
		c.bytes = buf.Bytes()
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	return c.bytes
}

// mergeFig2 assembles the figure purely from the registry.
func mergeFig2(t *testing.T, url string) []byte {
	t.Helper()
	c, err := Dial(url, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats := &experiments.SweepStats{}
	opt := fig2TestOpt(c, stats)
	opt.FromStore = true
	res, err := experiments.Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Computed.Load(); got != 0 {
		t.Fatalf("merge simulated %d cells, want 0", got)
	}
	return renderFig2(t, res)
}

// runCellWorker wires a sweep engine into the worker's Run callback.
func runCellWorker(eng *experiments.Sweep, byKey map[string]experiments.CellSpec) func(WorkCell) error {
	return func(wc WorkCell) error {
		sp, ok := byKey[wc.Key]
		if !ok {
			return fmt.Errorf("lease names unknown cell %s", wc.Key)
		}
		_, err := eng.RunOne(sp)
		return err
	}
}

// TestCoordinatedSweepWorkerKilledMidLease is the tentpole's
// acceptance story: worker 1 claims a batch, commits one cell, and
// dies silently; after the lease TTL its remaining cell returns to
// the queue and worker 2 finishes the sweep without re-simulating the
// committed cell — and the merged figure is byte-identical to a cold
// unsharded run.
func TestCoordinatedSweepWorkerKilledMidLease(t *testing.T) {
	want := coldFig2(t)
	central, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	cells, byKey, stamp := enumerateFig2(t)
	clock := newFakeClock()
	q := NewWorkQueue(cells, QueueOptions{
		Study: "fig2", BatchSize: 2, LeaseTTL: time.Minute,
		Clock: clock.Now, Committed: committedIn(central),
		Logf: t.Logf,
	})
	ts := httptest.NewServer(NewServer(central, ServerOptions{Work: q}))
	defer ts.Close()

	// Worker 1: claim a batch, commit exactly one cell, die silently —
	// no heartbeat, no completion, no graceful anything.
	w1, err := Dial(ts.URL, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	claim, err := w1.ClaimWork("w1")
	if err != nil {
		t.Fatal(err)
	}
	if claim.Lease == nil || len(claim.Lease.Cells) != 2 {
		t.Fatalf("w1 claim: %+v, want a 2-cell lease", claim)
	}
	if claim.Lease.Stamp != stamp {
		t.Fatalf("lease stamp %s, worker enumerated %s", claim.Lease.Stamp, stamp)
	}
	stats1 := &experiments.SweepStats{}
	eng1 := experiments.NewSweep(fig2TestOpt(w1, stats1))
	if _, err := eng1.RunOne(byKey[claim.Lease.Cells[0].Key]); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	// Silence past the TTL. Expiry is lazy: nothing happens until the
	// next wire activity.
	clock.Advance(61 * time.Second)

	// Worker 2 drains the rest, the revoked remainder included.
	w2, err := Dial(ts.URL, ClientOptions{Backoff: time.Millisecond, JitterKey: "w2"})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	stats2 := &experiments.SweepStats{}
	eng2 := experiments.NewSweep(fig2TestOpt(w2, stats2))
	rep, err := RunWorker(w2, WorkerOptions{
		Name: "w2", Stamp: stamp, Parallel: 2,
		Run:  runCellWorker(eng2, byKey),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 5 || rep.Failures != 0 || rep.LeasesLost != 0 {
		t.Fatalf("w2 report %+v, want 5 cells (1 was already committed by the victim)", rep)
	}
	if got := stats2.Computed.Load(); got != 5 {
		t.Fatalf("w2 simulated %d cells, want exactly the 5 uncommitted ones", got)
	}
	st, err := w2.FetchWorkStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.ExpiredLeases != 1 || st.Requeues != 1 || st.DoneCells != 6 {
		t.Fatalf("final status %+v", st)
	}
	if central.Len() != 6 {
		t.Fatalf("registry holds %d cells, want 6", central.Len())
	}

	// The lease lifecycle is on /v1/metrics for operators.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		`registry_work_leases_total{event="expired"} 1`,
		`registry_work_requeued_cells_total 1`,
		`registry_work_leases_total{event="granted"} 4`,
	} {
		if !strings.Contains(prom.String(), line) {
			t.Errorf("metrics missing %q:\n%s", line, prom.String())
		}
	}

	if got := mergeFig2(t, ts.URL); !bytes.Equal(got, want) {
		t.Fatalf("merged figure differs from the cold run:\n%s\n---\n%s", got, want)
	}
}

// TestCoordinatorRestartRecovery: the coordinator dies mid-sweep and a
// new one over the same store resumes with exactly the un-committed
// remainder — committed cells are never re-issued.
func TestCoordinatorRestartRecovery(t *testing.T) {
	want := coldFig2(t)
	central, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	cells, byKey, stamp := enumerateFig2(t)

	// First life: a worker claims a batch and commits one cell, then
	// the coordinator process dies (server torn down; queue state —
	// leases, pending batches — all lost).
	clock1 := newFakeClock()
	q1 := NewWorkQueue(cells, QueueOptions{
		Study: "fig2", BatchSize: 2, LeaseTTL: time.Minute,
		Clock: clock1.Now, Committed: committedIn(central),
	})
	ts1 := httptest.NewServer(NewServer(central, ServerOptions{Work: q1}))
	w1, err := Dial(ts1.URL, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	claim, err := w1.ClaimWork("w1")
	if err != nil {
		t.Fatal(err)
	}
	stats1 := &experiments.SweepStats{}
	eng1 := experiments.NewSweep(fig2TestOpt(w1, stats1))
	if _, err := eng1.RunOne(byKey[claim.Lease.Cells[0].Key]); err != nil {
		t.Fatal(err)
	}
	w1.Close()
	ts1.Close() // the crash

	// Second life: a fresh queue rebuilt from nothing but the store.
	clock2 := newFakeClock()
	q2 := NewWorkQueue(cells, QueueOptions{
		Study: "fig2", BatchSize: 2, LeaseTTL: time.Minute,
		Clock: clock2.Now, Committed: committedIn(central),
	})
	st, _ := q2.Status()
	if st.DoneCells != 1 || st.PendingCells != 5 {
		t.Fatalf("recovered queue %+v, want 1 done / 5 pending", st)
	}
	if st.Stamp != stamp {
		t.Fatal("restart changed the enumeration stamp")
	}
	ts2 := httptest.NewServer(NewServer(central, ServerOptions{Work: q2}))
	defer ts2.Close()
	w2, err := Dial(ts2.URL, ClientOptions{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	stats2 := &experiments.SweepStats{}
	eng2 := experiments.NewSweep(fig2TestOpt(w2, stats2))
	rep, err := RunWorker(w2, WorkerOptions{
		Name: "w2", Stamp: stamp, Parallel: 2, Run: runCellWorker(eng2, byKey),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 5 || stats2.Computed.Load() != 5 {
		t.Fatalf("after restart: report %+v, %d simulated; want the 5 uncommitted cells", rep, stats2.Computed.Load())
	}
	if got := mergeFig2(t, ts2.URL); !bytes.Equal(got, want) {
		t.Fatal("merged figure differs from the cold run after coordinator restart")
	}

	// Third life over the complete store: born done, issues nothing.
	q3 := NewWorkQueue(cells, QueueOptions{
		Study: "fig2", Clock: newFakeClock().Now, Committed: committedIn(central),
	})
	if _, _, done, _ := q3.Claim("w"); !done {
		t.Fatal("restart over a complete sweep must answer done immediately")
	}
}

// TestWorkerUnderChaosTransport drives a full coordinated sweep
// through a faulty wire: the first claim is dropped, a completion is
// reset after the server processed it (the worker must treat the
// resulting lease-gone as settled, not re-run cells), and cell GETs
// are delayed. The sweep still completes byte-identical.
func TestWorkerUnderChaosTransport(t *testing.T) {
	want := coldFig2(t)
	central, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	cells, byKey, stamp := enumerateFig2(t)
	clock := newFakeClock()
	q := NewWorkQueue(cells, QueueOptions{
		Study: "fig2", BatchSize: 2, LeaseTTL: time.Minute,
		Clock: clock.Now, Committed: committedIn(central),
	})
	ts := httptest.NewServer(NewServer(central, ServerOptions{Work: q}))
	defer ts.Close()

	rt := chaostest.Wrap(nil,
		chaostest.Fault{Method: "POST", PathPrefix: "/v1/work/claim", Mode: chaostest.Drop, Count: 1},
		chaostest.Fault{Method: "POST", PathPrefix: "/v1/work/complete", Mode: chaostest.Reset, Count: 1},
		chaostest.Fault{Method: "GET", PathPrefix: "/v1/cells/", Mode: chaostest.Delay, Count: 2, Delay: 2 * time.Millisecond},
	)
	w, err := Dial(ts.URL, ClientOptions{
		HTTPClient: &http.Client{Transport: rt},
		Backoff:    time.Millisecond,
		JitterKey:  "chaos-worker",
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stats := &experiments.SweepStats{}
	eng := experiments.NewSweep(fig2TestOpt(w, stats))
	rep, err := RunWorker(w, WorkerOptions{
		Name: "chaos-worker", Stamp: stamp, Parallel: 2,
		Run:  runCellWorker(eng, byKey),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The reset completion was processed server-side; the client saw a
	// connection error, retried, and got lease-gone — which RunWorker
	// must count as a lost lease, never as license to re-run cells.
	if rep.LeasesLost != 1 {
		t.Fatalf("report %+v, want exactly the reset completion counted as a lost lease", rep)
	}
	if got := stats.Computed.Load(); got != 6 {
		t.Fatalf("worker simulated %d cells, want 6 exactly (idempotent commits, no re-runs)", got)
	}
	dropped, reset, delayed := rt.Fired()
	if dropped != 1 || reset != 1 || delayed != 2 {
		t.Fatalf("faults fired: %d dropped, %d reset, %d delayed", dropped, reset, delayed)
	}
	st, err := w.FetchWorkStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("sweep not done under chaos: %+v", st)
	}
	if got := mergeFig2(t, ts.URL); !bytes.Equal(got, want) {
		t.Fatal("merged figure differs from the cold run under chaos transport")
	}
}

// TestWorkerAbandonsOnLeaseLoss: a worker whose heartbeat fails (one
// dropped request, no retry budget) must assume revocation, abandon
// the batch's remaining cells, and carry on claiming — and the sweep
// still converges to byte-identical output once the revoked batch
// expires back into the queue.
func TestWorkerAbandonsOnLeaseLoss(t *testing.T) {
	want := coldFig2(t)
	central, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	cells, byKey, stamp := enumerateFig2(t)
	clock := newFakeClock()
	q := NewWorkQueue(cells, QueueOptions{
		Study: "fig2", BatchSize: 2, LeaseTTL: time.Minute,
		Heartbeat: time.Millisecond, // worker-side ticker: fires during the first cell
		Clock:     clock.Now, Committed: committedIn(central),
		Logf: t.Logf,
	})
	ts := httptest.NewServer(NewServer(central, ServerOptions{Work: q}))
	defer ts.Close()

	// Advance the queue's clock steadily from the background so the
	// abandoned batch's lease expires while the worker keeps claiming.
	// Live leases heartbeat every 1ms of real time, so their deadlines
	// outrun the 30s-per-10ms advance; only silent ones fall behind.
	stopAdv := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	go func() {
		defer adv.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopAdv:
				return
			case <-tick.C:
				clock.Advance(30 * time.Second)
			}
		}
	}()
	defer func() { close(stopAdv); adv.Wait() }()

	rt := chaostest.Wrap(nil,
		chaostest.Fault{Method: "POST", PathPrefix: "/v1/work/heartbeat", Mode: chaostest.Drop, Count: 1},
	)
	w, err := Dial(ts.URL, ClientOptions{
		HTTPClient: &http.Client{Transport: rt},
		Retries:    -1, // one dropped heartbeat = assume revoked
		JitterKey:  "flaky-worker",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	stats := &experiments.SweepStats{}
	eng := experiments.NewSweep(fig2TestOpt(w, stats))
	var first atomic.Bool
	first.Store(true)
	rep, err := RunWorker(w, WorkerOptions{
		Name: "flaky-worker", Stamp: stamp, Parallel: 1,
		Run: func(wc WorkCell) error {
			if first.CompareAndSwap(true, false) {
				// Hold the first cell long enough for the 1ms heartbeat
				// ticker to fire into the dropped request.
				time.Sleep(25 * time.Millisecond)
			}
			return runCellWorker(eng, byKey)(wc)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeasesLost < 1 {
		t.Fatalf("report %+v, want at least one lost lease", rep)
	}
	st, err := w.FetchWorkStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.ExpiredLeases < 1 {
		t.Fatalf("final status %+v", st)
	}
	if central.Len() != 6 {
		t.Fatalf("registry holds %d cells, want 6", central.Len())
	}
	if got := mergeFig2(t, ts.URL); !bytes.Equal(got, want) {
		t.Fatal("merged figure differs from the cold run after lease loss")
	}
}
