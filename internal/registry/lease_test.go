package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the queue's lazy expiry deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// cellsNamed builds n work cells with synthetic keys and one group.
func cellsNamed(group string, names ...string) []WorkCell {
	var out []WorkCell
	for _, n := range names {
		out = append(out, WorkCell{Key: n, Label: group + "/" + n, Group: group})
	}
	return out
}

func keysOf(cells []WorkCell) []string {
	var out []string
	for _, c := range cells {
		out = append(out, c.Key)
	}
	return out
}

func TestWorkStampDiscriminates(t *testing.T) {
	a := WorkStamp("fig2", []string{"k1", "k2"})
	if b := WorkStamp("fig2", []string{"k1", "k2"}); b != a {
		t.Fatalf("same enumeration, different stamps: %s vs %s", a, b)
	}
	if b := WorkStamp("fig1", []string{"k1", "k2"}); b == a {
		t.Fatal("different study, same stamp")
	}
	if b := WorkStamp("fig2", []string{"k2", "k1"}); b == a {
		t.Fatal("different order, same stamp")
	}
	if b := WorkStamp("fig2", []string{"k1"}); b == a {
		t.Fatal("different cells, same stamp")
	}
}

// TestWorkQueueAffinityBatching: cells are grouped by deployment
// affinity in first-appearance order and chunked, so no batch mixes
// image builds.
func TestWorkQueueAffinityBatching(t *testing.T) {
	cells := append(cellsNamed("imgA", "a1", "a2", "a3"), cellsNamed("imgB", "b1", "b2")...)
	// Interleave one more A after the Bs: grouping must pull it back.
	cells = append(cells, WorkCell{Key: "a4", Label: "imgA/a4", Group: "imgA"})
	clock := newFakeClock()
	q := NewWorkQueue(cells, QueueOptions{Study: "t", BatchSize: 2, LeaseTTL: time.Minute, Clock: clock.Now})

	var batches [][]string
	for {
		lease, _, done, _ := q.Claim("w")
		if done {
			t.Fatal("done before any batch completed")
		}
		if lease == nil {
			break // all leased out
		}
		batches = append(batches, keysOf(lease.Cells))
		if len(batches) > 10 {
			t.Fatal("runaway claim loop")
		}
	}
	want := [][]string{{"a1", "a2"}, {"a3", "a4"}, {"b1", "b2"}}
	if fmt.Sprint(batches) != fmt.Sprint(want) {
		t.Fatalf("batches %v, want %v", batches, want)
	}
}

// TestWorkQueueRecovery: committed cells are marked done at
// construction and never issued, but still count in the stamp — a
// restarted coordinator resumes the same sweep, smaller.
func TestWorkQueueRecovery(t *testing.T) {
	cells := cellsNamed("g", "c1", "c2", "c3", "c4")
	committed := map[string]bool{"c1": true, "c3": true}
	clock := newFakeClock()
	opt := QueueOptions{
		Study: "t", BatchSize: 10, LeaseTTL: time.Minute, Clock: clock.Now,
		Committed: func(k string) bool { return committed[k] },
	}
	q := NewWorkQueue(cells, opt)
	if q.Stamp() != WorkStamp("t", keysOf(cells)) {
		t.Fatal("stamp must cover the full enumeration, not the filtered remainder")
	}
	st, _ := q.Status()
	if st.TotalCells != 4 || st.DoneCells != 2 || st.PendingCells != 2 {
		t.Fatalf("recovered status %+v", st)
	}
	lease, _, _, _ := q.Claim("w")
	if got := keysOf(lease.Cells); fmt.Sprint(got) != fmt.Sprint([]string{"c2", "c4"}) {
		t.Fatalf("claimed %v, want the uncommitted remainder", got)
	}
	committed["c2"], committed["c4"] = true, true
	if _, ok, _ := q.Complete(lease.ID, false, nil); !ok {
		t.Fatal("completion refused")
	}
	if st, _ := q.Status(); !st.Done {
		t.Fatalf("sweep not done after remainder completed: %+v", st)
	}
	// A fresh coordinator over the fully-committed store is born done.
	q2 := NewWorkQueue(cells, opt)
	if _, _, done, _ := q2.Claim("w"); !done {
		t.Fatal("restart over a complete store must answer done")
	}
}

// TestWorkQueueExpiryRequeues: silence past the TTL revokes the lease;
// cells the dead worker committed stay done, the rest return to the
// front of the queue.
func TestWorkQueueExpiryRequeues(t *testing.T) {
	cells := cellsNamed("g", "c1", "c2", "c3")
	committed := map[string]bool{}
	clock := newFakeClock()
	q := NewWorkQueue(cells, QueueOptions{
		Study: "t", BatchSize: 2, LeaseTTL: time.Minute, Clock: clock.Now,
		Committed: func(k string) bool { return committed[k] },
	})
	lease, _, _, _ := q.Claim("w1") // c1, c2
	// Heartbeats within the TTL keep it alive across any span.
	for i := 0; i < 5; i++ {
		clock.Advance(50 * time.Second)
		if _, ok, _ := q.HeartbeatFrom(lease.ID, nil, ""); !ok {
			t.Fatalf("heartbeat %d refused while renewing in time", i)
		}
	}
	// The worker commits c1, then dies silently.
	committed["c1"] = true
	clock.Advance(61 * time.Second)
	// Expiry is lazy: the next operation notices. ev carries the
	// fallout for metrics.
	lease2, _, _, ev := q.Claim("w2")
	if ev.expired != 1 || ev.requeuedCells != 1 {
		t.Fatalf("events %+v, want 1 expiry requeueing 1 cell", ev)
	}
	if got := keysOf(lease2.Cells); fmt.Sprint(got) != fmt.Sprint([]string{"c2"}) {
		t.Fatalf("w2 claimed %v, want the dead worker's uncommitted remainder first", got)
	}
	if _, ok, _ := q.HeartbeatFrom(lease.ID, nil, ""); ok {
		t.Fatal("revoked lease still heartbeats")
	}
	if _, ok, _ := q.Complete(lease.ID, false, nil); ok {
		t.Fatal("revoked lease still completes")
	}
	st, _ := q.Status()
	if st.ExpiredLeases != 1 || st.Requeues != 1 || st.DoneCells != 1 {
		t.Fatalf("status %+v", st)
	}
}

// TestWorkQueueFailedCompletion: a failed batch requeues only what
// never committed — and since deterministic failures commit negative
// records, a poisoned cell cannot loop.
func TestWorkQueueFailedCompletion(t *testing.T) {
	cells := cellsNamed("g", "c1", "c2")
	committed := map[string]bool{}
	clock := newFakeClock()
	q := NewWorkQueue(cells, QueueOptions{
		Study: "t", BatchSize: 2, LeaseTTL: time.Minute, Clock: clock.Now,
		Committed: func(k string) bool { return committed[k] },
	})
	lease, _, _, _ := q.Claim("w")
	committed["c1"] = true // success; c2's simulation blew up pre-commit
	_, ok, ev := q.Complete(lease.ID, true, nil)
	if !ok || ev.requeuedCells != 1 {
		t.Fatalf("failed completion: ok=%v ev=%+v", ok, ev)
	}
	lease2, _, _, _ := q.Claim("w")
	if got := keysOf(lease2.Cells); fmt.Sprint(got) != fmt.Sprint([]string{"c2"}) {
		t.Fatalf("requeued %v, want just the uncommitted cell", got)
	}
	// This time the failure committed a negative record: the batch is
	// done even though the worker reports failed=true.
	committed["c2"] = true
	if _, ok, _ := q.Complete(lease2.ID, true, nil); !ok {
		t.Fatal("completion refused")
	}
	if st, _ := q.Status(); !st.Done {
		t.Fatalf("negative records must count as done: %+v", st)
	}
}

// TestWorkQueueWaitThenDone: with everything leased out a claim says
// wait (an active lease may yet expire); with everything committed it
// says done.
func TestWorkQueueWaitThenDone(t *testing.T) {
	clock := newFakeClock()
	q := NewWorkQueue(cellsNamed("g", "c1"), QueueOptions{
		Study: "t", BatchSize: 1, LeaseTTL: time.Minute, Heartbeat: 10 * time.Second, Clock: clock.Now,
	})
	lease, _, _, _ := q.Claim("w1")
	_, wait, done, _ := q.Claim("w2")
	if done || wait != 10*time.Second {
		t.Fatalf("second claim: wait=%v done=%v, want the heartbeat interval", wait, done)
	}
	if _, ok, _ := q.Complete(lease.ID, false, nil); !ok {
		t.Fatal("completion refused")
	}
	if _, _, done, _ := q.Claim("w2"); !done {
		t.Fatal("claim after the last completion must answer done")
	}
}

// TestJitteredBackoff: deterministic for a given (key, path, attempt),
// bounded to [delay/2, delay), and disabled for an empty key.
func TestJitteredBackoff(t *testing.T) {
	const delay = 100 * time.Millisecond
	if got := jittered("", "/v1/work/claim", 0, delay); got != delay {
		t.Fatalf("empty key must not jitter: %v", got)
	}
	a := jittered("w1", "/v1/work/claim", 0, delay)
	if b := jittered("w1", "/v1/work/claim", 0, delay); b != a {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	if a < delay/2 || a >= delay {
		t.Fatalf("jitter %v outside [%v, %v)", a, delay/2, delay)
	}
	// Different workers (and attempts) should usually land apart — the
	// anti-thundering-herd property. With 16 samples in a 50ms window,
	// all-equal is astronomically unlikely unless the hash is broken.
	seen := map[time.Duration]bool{}
	for i := 0; i < 8; i++ {
		seen[jittered(fmt.Sprintf("w%d", i), "/v1/work/claim", 0, delay)] = true
		seen[jittered("w1", "/v1/work/claim", i, delay)] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter collapses every worker onto one delay")
	}
}
