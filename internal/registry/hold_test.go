package registry

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/resultdb"
)

// serveQueue mounts q on a test server and dials a client to it; both
// close when the test ends.
func serveQueue(t *testing.T, q *WorkQueue) *Client {
	t.Helper()
	store, err := resultdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(NewServer(store, ServerOptions{Work: q}))
	t.Cleanup(ts.Close)
	c, err := Dial(ts.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// claimAnswer is one finished claim as seen by its caller.
type claimAnswer struct {
	claim WorkClaim
	err   error
	at    time.Time
}

// claimAsync claims for worker in the background.
func claimAsync(c *Client, worker string) <-chan claimAnswer {
	out := make(chan claimAnswer, 1)
	go func() {
		wc, err := c.ClaimWork(worker)
		out <- claimAnswer{wc, err, time.Now()}
	}()
	return out
}

// awaitHeld returns once worker's claim has reached the queue: with
// nothing free, that claim is now held.
func awaitHeld(t *testing.T, q *WorkQueue, worker string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, workers, _ := q.Fleet()
		for _, w := range workers {
			if w.Name == worker {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("claim by %s never reached the queue", worker)
}

// answerWithin waits for a held claim's answer.
func answerWithin(t *testing.T, ch <-chan claimAnswer, d time.Duration) claimAnswer {
	t.Helper()
	select {
	case a := <-ch:
		if a.err != nil {
			t.Fatalf("held claim: %v", a.err)
		}
		return a
	case <-time.After(d):
		t.Fatalf("held claim not answered within %v", d)
	}
	return claimAnswer{}
}

// TestIdleWorkerReturnsWhenSweepCompletes: three batches over two
// workers leave one worker without a batch at the end. Its claim is
// held and answered "done" when the last lease completes, so both
// workers return as soon as the sweep is done, not a heartbeat (15 s
// here) later.
func TestIdleWorkerReturnsWhenSweepCompletes(t *testing.T) {
	q := NewWorkQueue(cellsNamed("g", "c1", "c2", "c3", "c4", "c5", "c6"), QueueOptions{
		Study: "t", BatchSize: 2, LeaseTTL: time.Minute,
	})
	c := serveQueue(t, q)
	type result struct {
		rep WorkerReport
		err error
	}
	results := make(chan result, 2)
	for _, name := range []string{"w1", "w2"} {
		go func() {
			rep, err := RunWorker(c, WorkerOptions{
				Name: name,
				Run:  func(WorkCell) error { time.Sleep(50 * time.Millisecond); return nil },
			})
			results <- result{rep, err}
		}()
	}
	timeout := time.After(2 * time.Second)
	cells := 0
	for range 2 {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			cells += r.rep.Cells
		case <-timeout:
			t.Fatal("a worker was still running 2 s into a ~0.2 s sweep")
		}
	}
	if cells != 6 {
		t.Fatalf("workers ran %d cells, want 6", cells)
	}
}

// TestHeldClaimAnswers covers every way a held claim ends.
func TestHeldClaimAnswers(t *testing.T) {
	t.Run("done when the last lease completes", func(t *testing.T) {
		t.Parallel()
		q := NewWorkQueue(cellsNamed("g", "c1", "c2"), QueueOptions{Study: "t", BatchSize: 2, LeaseTTL: time.Minute})
		c := serveQueue(t, q)
		lease, _, _, _ := q.Claim("w1")
		held := claimAsync(c, "w2")
		awaitHeld(t, q, "w2")
		q.Complete(lease.ID, false, nil)
		if a := answerWithin(t, held, time.Second); !a.claim.Done {
			t.Fatalf("answer %+v, want done", a.claim)
		}
	})

	t.Run("requeued cells when a lease fails", func(t *testing.T) {
		t.Parallel()
		q := NewWorkQueue(cellsNamed("g", "c1", "c2"), QueueOptions{Study: "t", BatchSize: 2, LeaseTTL: time.Minute})
		c := serveQueue(t, q)
		lease, _, _, _ := q.Claim("w1")
		held := claimAsync(c, "w2")
		awaitHeld(t, q, "w2")
		q.Complete(lease.ID, true, nil) // nothing committed: both cells requeue
		a := answerWithin(t, held, time.Second)
		if a.claim.Lease == nil || !reflect.DeepEqual(keysOf(a.claim.Lease.Cells), []string{"c1", "c2"}) {
			t.Fatalf("answer %+v, want a lease on the failed batch's cells", a.claim)
		}
	})

	t.Run("expired cells at the lease deadline", func(t *testing.T) {
		t.Parallel()
		const ttl = 300 * time.Millisecond
		q := NewWorkQueue(cellsNamed("g", "c1", "c2"), QueueOptions{
			Study: "t", BatchSize: 2, LeaseTTL: ttl, Heartbeat: 10 * time.Second,
		})
		c := serveQueue(t, q)
		before := time.Now()
		q.Claim("doomed") // never heartbeats
		deadline := time.Now().Add(ttl)
		a := answerWithin(t, claimAsync(c, "heir"), 2*time.Second)
		if a.claim.Lease == nil || !reflect.DeepEqual(keysOf(a.claim.Lease.Cells), []string{"c1", "c2"}) {
			t.Fatalf("answer %+v, want the expired lease's cells", a.claim)
		}
		if a.at.Before(before.Add(ttl)) || a.at.After(deadline.Add(100*time.Millisecond)) {
			t.Fatalf("answered %v after the grant, want within 100ms of the %v deadline", a.at.Sub(before), ttl)
		}
	})

	t.Run("wait at the heartbeat bound", func(t *testing.T) {
		t.Parallel()
		const heartbeat = 200 * time.Millisecond
		q := NewWorkQueue(cellsNamed("g", "c1"), QueueOptions{
			Study: "t", BatchSize: 1, LeaseTTL: time.Minute, Heartbeat: heartbeat,
		})
		c := serveQueue(t, q)
		q.Claim("w1")
		start := time.Now()
		a := answerWithin(t, claimAsync(c, "w2"), 2*time.Second)
		if a.claim.Done || a.claim.Lease != nil {
			t.Fatalf("answer %+v, want wait", a.claim)
		}
		if held := a.at.Sub(start); held < heartbeat || held > time.Second {
			t.Fatalf("held %v, want about the %v heartbeat", held, heartbeat)
		}
	})

	t.Run("promptly when the client goes away", func(t *testing.T) {
		t.Parallel()
		q := NewWorkQueue(cellsNamed("g", "c1"), QueueOptions{Study: "t", BatchSize: 1, LeaseTTL: time.Minute})
		store, err := resultdb.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		srv := NewServer(store, ServerOptions{Work: q})
		returned := make(chan struct{}, 1)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() { returned <- struct{}{} }()
			srv.ServeHTTP(w, r)
		}))
		defer ts.Close()
		q.Claim("w1")
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/work/claim",
			bytes.NewReader([]byte(`{"worker":"w2"}`)))
		if err != nil {
			t.Fatal(err)
		}
		failed := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			failed <- err
		}()
		awaitHeld(t, q, "w2")
		cancel()
		if err := <-failed; err == nil {
			t.Fatal("cancelled claim succeeded")
		}
		select {
		case <-returned:
		case <-time.After(time.Second):
			t.Fatal("held claim's handler still running 1 s after its client went away")
		}
	})

	t.Run("graceful shutdown does not wait out a hold", func(t *testing.T) {
		t.Parallel()
		q := NewWorkQueue(cellsNamed("g", "c1"), QueueOptions{Study: "t", BatchSize: 1, LeaseTTL: time.Minute})
		store, err := resultdb.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		served := make(chan error, 1)
		go func() { served <- NewServer(store, ServerOptions{Work: q}).Serve(ctx, ln) }()
		c, err := Dial("http://"+ln.Addr().String(), ClientOptions{Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		q.Claim("w1")
		held := claimAsync(c, "w2")
		awaitHeld(t, q, "w2")
		start := time.Now()
		cancel()
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("Serve: %v", err)
			}
		case <-time.After(time.Second):
			t.Fatal("Serve still shutting down 1 s after cancel, with a claim held (15 s heartbeat)")
		}
		t.Logf("shutdown took %v", time.Since(start))
		if a := <-held; a.err == nil && (a.claim.Done || a.claim.Lease != nil) {
			t.Fatalf("claim held through shutdown answered %+v, want wait", a.claim)
		}
	})
}
