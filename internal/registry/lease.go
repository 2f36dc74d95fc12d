package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// This file is the sweep coordinator's control plane: a WorkQueue of
// leased cell batches behind the /v1/work endpoints. The design goal
// is fault tolerance with no correctness dependence on timing:
//
//   - Work is handed out as leases with a deadline. A worker that goes
//     silent past the deadline loses the lease and its unfinished
//     cells return to the queue for the next claimant.
//   - Every cell commit is content-addressed and idempotent, so a
//     revoked worker's in-flight commits are never corruption — at
//     worst a cell is computed twice, and the second commit is a
//     no-op.
//   - Requeueing consults the store first: cells the dead worker
//     already committed (successes and recorded failures alike) are
//     marked done, never re-issued. The same check seeds the queue at
//     construction, so a restarted coordinator recovers exactly the
//     un-committed remainder of the sweep from the manifest + store.
//
// Expiry is lazy: deadlines are checked against the queue's clock at
// every claim/heartbeat/complete/status call rather than by a timer
// goroutine, so tests drive every failure mode deterministically with
// an injected clock and an idle coordinator spends nothing. The queue
// never blocks: a claim that finds nothing free is held by the HTTP
// handler (work_http.go) on the queue's settlement signal and the
// bound Claim returns.

// WorkCell is one unit of leased work on the wire: the cell's store
// key, its display label, and its deployment-affinity group (cells
// sharing a group share a memoized image build, so the queue keeps
// them in the same batch where possible).
type WorkCell struct {
	Key   string `json:"key"`
	Label string `json:"label"`
	Group string `json:"group,omitempty"`
}

// WorkStatus is the coordinator's public state, served on
// GET /v1/work. All cell counts partition TotalCells.
type WorkStatus struct {
	// Study names the enumerated study; Stamp fingerprints its full
	// cell set, so workers can refuse a coordinator sweeping a
	// different study (or the same study at different flags).
	Study string `json:"study"`
	Stamp string `json:"stamp"`
	// TotalCells counts the full enumeration; DoneCells the cells
	// committed (or found committed at recovery); PendingCells the
	// cells in unleased batches; LeasedCells the cells out on active
	// leases.
	TotalCells   int `json:"total_cells"`
	DoneCells    int `json:"done_cells"`
	PendingCells int `json:"pending_cells"`
	LeasedCells  int `json:"leased_cells"`
	// ActiveLeases counts live leases; ExpiredLeases the leases ever
	// revoked for silence; Requeues the batches ever returned to the
	// queue (expiry and failure both count).
	ActiveLeases  int   `json:"active_leases"`
	ExpiredLeases int64 `json:"expired_leases"`
	Requeues      int64 `json:"requeues"`
	// Done reports sweep completion: every cell committed.
	Done bool `json:"done"`
	// HeartbeatMillis is the advertised heartbeat interval.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// WorkerProgress is a worker's self-reported progress and attribution
// summary, carried on heartbeats. All counters are cumulative over the
// worker's run (a lease carries only its latest snapshot), so the
// coordinator's fleet view never double-counts across batches.
type WorkerProgress struct {
	// Cells counts cells this worker ran to completion; Failures the
	// ones whose run errored (negative records committed).
	Cells    int `json:"cells"`
	Failures int `json:"failures,omitempty"`
	// Simulated and Replayed split the produced cells by provenance:
	// simulated fresh vs restored from the store.
	Simulated int64 `json:"simulated"`
	Replayed  int64 `json:"replayed,omitempty"`
	// VirtualSeconds totals the simulated cells' virtual time over all
	// ranks; CommSeconds the part the MPI engine accounted to
	// communication — the same split the profiler refines per rank.
	VirtualSeconds float64 `json:"virtual_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
}

// add folds another worker's progress in (fleet totals).
func (p *WorkerProgress) add(o WorkerProgress) {
	p.Cells += o.Cells
	p.Failures += o.Failures
	p.Simulated += o.Simulated
	p.Replayed += o.Replayed
	p.VirtualSeconds += o.VirtualSeconds
	p.CommSeconds += o.CommSeconds
}

// WorkerStatus is the coordinator's last knowledge of one worker, as
// served on GET /v1/status.
type WorkerStatus struct {
	Name string `json:"name"`
	// Lease is the worker's active lease id ("" between batches);
	// LeaseCells its batch size.
	Lease      string `json:"lease,omitempty"`
	LeaseCells int    `json:"lease_cells,omitempty"`
	// Batches counts leases ever granted to this worker.
	Batches int `json:"batches"`
	// LastSeenMillis is how long ago the worker last contacted the
	// coordinator (claim, heartbeat, or completion).
	LastSeenMillis int64 `json:"last_seen_ms"`
	// Stale marks a worker silent for over three heartbeat intervals
	// while the sweep is still running — enough missed renewals that a
	// healthy worker is all but ruled out, yet early enough to flag the
	// stall before its lease expires. Never set once the sweep is done
	// (every worker goes quiet then, legitimately).
	Stale bool `json:"stale,omitempty"`
	// Progress is the worker's latest heartbeat-reported summary.
	Progress WorkerProgress `json:"progress"`
}

// WorkLease is one granted lease: the batch of cells the worker now
// owns, and the renewal contract (heartbeat within TTL or lose it).
type WorkLease struct {
	ID        string
	Study     string
	Stamp     string
	Cells     []WorkCell
	TTL       time.Duration
	Heartbeat time.Duration
}

// workEvents reports what a queue operation's lazy expiry sweep did,
// so the server can fold it into metrics.
type workEvents struct {
	// expired counts leases revoked for silence; requeuedCells the
	// cells returned to the queue by those revocations.
	expired       int
	requeuedCells int
}

// QueueOptions tunes a WorkQueue.
type QueueOptions struct {
	// Study names the sweep (display and stamp verification).
	Study string
	// BatchSize caps cells per lease. Default 4.
	BatchSize int
	// LeaseTTL is how long a lease survives without a heartbeat.
	// Default 30s.
	LeaseTTL time.Duration
	// Heartbeat is the renewal interval advertised to workers, and
	// (capped at 10 s) the longest a claim is held while every batch
	// is leased out. Default LeaseTTL/4.
	Heartbeat time.Duration
	// Clock supplies the queue's notion of now. Default time.Now —
	// lease bookkeeping is operational wall time and never reaches
	// simulated results (cell outcomes are pure functions of the
	// spec, committed content-addressed).
	Clock func() time.Time
	// Committed reports whether a cell key is already durably
	// committed (success or recorded failure). Consulted at
	// construction (coordinator restart recovery) and at every
	// requeue, so committed cells are never re-issued. Nil means
	// nothing is committed.
	Committed func(key string) bool
	// Logf, when non-nil, receives one line per lease lifecycle event.
	Logf func(format string, args ...any)
	// Journal, when non-nil, records each lease's full lifetime as a
	// wall-clock span when it settles (completed, failed, or expired),
	// parented on the claiming request's propagated span id, plus one
	// "requeue" point per batch returned to the queue. Timestamps come
	// from Clock, so fake-clock tests journal deterministically.
	Journal *telemetry.FleetJournal
}

// workLease is the server-side lease record.
type workLease struct {
	id       string
	worker   string
	cells    []WorkCell
	deadline time.Time
	// granted anchors the lease's journal span; origin is the claiming
	// request's propagated span id (the cross-process parent link).
	granted time.Time
	origin  string
}

// WorkQueue coordinates one sweep across a fleet of workers: it hands
// out deterministic, deployment-affine cell batches as leases,
// revokes leases whose workers go silent, and never re-issues a cell
// the store already holds. Safe for concurrent use.
type WorkQueue struct {
	opt   QueueOptions
	stamp string
	total int

	mu      sync.Mutex
	changed chan struct{} // closed and replaced when a lease settles
	pending [][]WorkCell
	leases  map[string]*workLease
	workers map[string]*workerRec
	seq     int64
	done    int
	expired int64
	requeue int64
}

// workerRec is the coordinator's memory of one worker: liveness,
// active lease, and its latest self-reported progress. Records persist
// after a worker's lease ends so the fleet view keeps showing what
// each worker contributed.
type workerRec struct {
	lastSeen time.Time
	lease    string // active lease id, "" between batches
	batches  int
	progress WorkerProgress
}

// touch updates (creating if needed) a worker's liveness record.
// Callers hold q.mu.
func (q *WorkQueue) touch(worker string, now time.Time) *workerRec {
	rec, ok := q.workers[worker]
	if !ok {
		rec = &workerRec{}
		q.workers[worker] = rec
	}
	rec.lastSeen = now
	return rec
}

// WorkStamp fingerprints a study enumeration: the study name plus
// every cell key in sweep order. Coordinator and workers each compute
// it from their own enumeration; a mismatch means they were invoked
// with different studies or flags and must not exchange work.
func WorkStamp(study string, keys []string) string {
	h := sha256.New()
	h.Write([]byte(study))
	h.Write([]byte{0})
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// NewWorkQueue builds the coordinator state for one sweep. The stamp
// covers the full enumeration; cells already committed (per
// opt.Committed) are marked done immediately and never issued — a
// coordinator restarted mid-sweep resumes with exactly the
// un-committed remainder. Remaining cells are grouped by deployment
// affinity in first-appearance order and chunked into batches, so the
// assignment is deterministic for a given enumeration and store
// state.
func NewWorkQueue(cells []WorkCell, opt QueueOptions) *WorkQueue {
	if opt.BatchSize <= 0 {
		opt.BatchSize = 4
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 30 * time.Second
	}
	if opt.Heartbeat <= 0 {
		opt.Heartbeat = opt.LeaseTTL / 4
	}
	if opt.Clock == nil {
		//lint:allow wallclock -- lease deadlines are coordinator infrastructure; cell results are content-addressed and never carry wall time
		opt.Clock = time.Now
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	q := &WorkQueue{
		opt:     opt,
		stamp:   WorkStamp(opt.Study, keys),
		total:   len(cells),
		changed: make(chan struct{}),
		leases:  make(map[string]*workLease),
		workers: make(map[string]*workerRec),
	}
	// Recovery: drop committed cells before batching. Group the rest
	// by deployment affinity, preserving first-appearance order.
	var todo []WorkCell
	for _, c := range cells {
		if opt.Committed != nil && opt.Committed(c.Key) {
			q.done++
			continue
		}
		todo = append(todo, c)
	}
	var order []string
	groups := make(map[string][]WorkCell)
	for _, c := range todo {
		if _, ok := groups[c.Group]; !ok {
			order = append(order, c.Group)
		}
		groups[c.Group] = append(groups[c.Group], c)
	}
	for _, g := range order {
		batch := groups[g]
		for len(batch) > 0 {
			n := opt.BatchSize
			if n > len(batch) {
				n = len(batch)
			}
			q.pending = append(q.pending, batch[:n])
			batch = batch[n:]
		}
	}
	q.logf("coordinator: %s: %d cells (%d already committed), %d batches of ≤%d, lease ttl %v",
		opt.Study, q.total, q.done, len(q.pending), opt.BatchSize, opt.LeaseTTL)
	return q
}

// Stamp returns the queue's enumeration fingerprint.
func (q *WorkQueue) Stamp() string { return q.stamp }

// changes returns the channel the next lease settlement (completion,
// failure or expiry) closes. A claimant takes it before claiming, so a
// settlement between its claim and its wait still wakes it.
func (q *WorkQueue) changes() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.changed
}

// settled wakes every held claim. Callers hold q.mu.
func (q *WorkQueue) settled() {
	close(q.changed)
	q.changed = make(chan struct{})
}

func (q *WorkQueue) logf(format string, args ...any) {
	if q.opt.Logf != nil {
		q.opt.Logf(format, args...)
	}
}

// expire revokes every lease whose deadline has arrived, requeueing the
// cells its worker did not commit. Called under q.mu by every public
// operation, so silence is detected at the next wire activity — at
// the latest when a held claim's hold ends at that deadline — with no
// timer goroutine, and tests drive it with the injected clock. The
// trigger is the propagated span id of the request whose activity
// surfaced the expiry (a successor's claim, a status poll), journaled
// as the requeue's parent — a SIGKILLed worker's orphaned lease span
// thereby links to whoever inherited its work.
func (q *WorkQueue) expire(now time.Time, trigger string) workEvents {
	var ev workEvents
	var overdue []string
	for id, l := range q.leases {
		// Order-insensitive collection; processed in sorted order below
		// so requeue order is deterministic.
		if !now.Before(l.deadline) {
			overdue = append(overdue, id)
		}
	}
	if len(overdue) > 0 {
		q.settled()
	}
	sort.Strings(overdue)
	for _, id := range overdue {
		l := q.leases[id]
		delete(q.leases, id)
		if rec, ok := q.workers[l.worker]; ok && rec.lease == id {
			rec.lease = ""
		}
		remaining := q.dropCommitted(l.cells)
		ev.expired++
		q.expired++
		ev.requeuedCells += len(remaining)
		if len(remaining) > 0 {
			// Front of the queue: revoked work is the oldest owed.
			q.pending = append([][]WorkCell{remaining}, q.pending...)
			q.requeue++
		}
		q.journalLease(l, now, "expired", len(remaining))
		q.journalRequeue(l, now, trigger, len(remaining))
		q.logf("coordinator: lease %s (%s) expired: %d cells committed, %d requeued",
			l.id, l.worker, len(l.cells)-len(remaining), len(remaining))
	}
	return ev
}

// journalLease records a settled lease's full lifetime as a span on
// the coordinator's journal: Span is the lease id, Parent the claiming
// request's span — the one journal entry that survives a worker which
// could not write its own (SIGKILL).
func (q *WorkQueue) journalLease(l *workLease, now time.Time, outcome string, requeued int) {
	q.opt.Journal.Emit(telemetry.FleetEvent{
		Kind: telemetry.FleetSpan, Name: "lease", Span: l.id, Parent: l.origin,
		StartNs: l.granted.UnixNano(), EndNs: now.UnixNano(),
		Outcome: outcome, Label: l.worker,
		Detail: fmt.Sprintf("%d cells, %d requeued", len(l.cells), requeued),
	})
}

// journalRequeue records cells returning to the queue, parented on the
// request whose activity caused it (the failing completion, or the
// successor call that surfaced an expiry).
func (q *WorkQueue) journalRequeue(l *workLease, now time.Time, trigger string, requeued int) {
	if requeued == 0 {
		return
	}
	q.opt.Journal.Emit(telemetry.FleetEvent{
		Kind: telemetry.FleetPoint, Name: "requeue", Parent: trigger,
		StartNs: now.UnixNano(),
		Outcome: "requeued", Label: l.id,
		Detail: fmt.Sprintf("%d cells from %s", requeued, l.worker),
	})
}

// dropCommitted partitions a revoked or failed batch: committed cells
// are counted done, the rest are returned for requeueing.
func (q *WorkQueue) dropCommitted(cells []WorkCell) []WorkCell {
	var remaining []WorkCell
	for _, c := range cells {
		if q.opt.Committed != nil && q.opt.Committed(c.Key) {
			q.done++
		} else {
			remaining = append(remaining, c)
		}
	}
	return remaining
}

// maxClaimHold caps how long a claim is held, well inside a client's
// 30 s default request timeout.
const maxClaimHold = 10 * time.Second

// Claim hands the next batch to a worker as a lease. When no batch is
// free it returns a nil lease: done=true if every cell is committed
// (the worker should exit), otherwise wait, the longest nothing can
// change unless a lease settles first — the earliest live lease
// deadline, capped at min(Heartbeat, maxClaimHold).
func (q *WorkQueue) Claim(worker string) (lease *WorkLease, wait time.Duration, done bool, ev workEvents) {
	return q.ClaimFrom(worker, "")
}

// ClaimFrom is Claim carrying the claiming request's propagated span
// id, recorded as the lease's journal origin.
func (q *WorkQueue) ClaimFrom(worker, origin string) (lease *WorkLease, wait time.Duration, done bool, ev workEvents) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opt.Clock()
	ev = q.expire(now, origin)
	q.touch(worker, now)
	if len(q.pending) == 0 {
		if len(q.leases) == 0 && q.done == q.total {
			return nil, 0, true, ev
		}
		wait = min(q.opt.Heartbeat, maxClaimHold)
		//lint:allow maporder -- a minimum is order-insensitive
		for _, l := range q.leases {
			wait = min(wait, l.deadline.Sub(now))
		}
		return nil, wait, false, ev
	}
	cells := q.pending[0]
	q.pending = q.pending[1:]
	q.seq++
	l := &workLease{
		id:       fmt.Sprintf("lease-%d", q.seq),
		worker:   worker,
		cells:    cells,
		deadline: now.Add(q.opt.LeaseTTL),
		granted:  now,
		origin:   origin,
	}
	q.leases[l.id] = l
	rec := q.workers[worker]
	rec.lease = l.id
	rec.batches++
	q.logf("coordinator: lease %s: %d cells to %s (%s)", l.id, len(cells), worker, cells[0].Label)
	return &WorkLease{
		ID:        l.id,
		Study:     q.opt.Study,
		Stamp:     q.stamp,
		Cells:     cells,
		TTL:       q.opt.LeaseTTL,
		Heartbeat: q.opt.Heartbeat,
	}, 0, false, ev
}

// HeartbeatFrom renews a lease's deadline, folding the worker's
// self-reported progress (nil is a plain renewal) into its fleet
// record. origin is the renewing request's propagated span id (the
// parent of any requeue its expiry sweep causes; "" for none).
// ok=false means the lease is gone — expired and requeued, or already
// completed — and the worker must abandon the batch's remaining cells
// (its finished commits are durable and harmless either way). The
// worker name comes back so the server can label per-worker metrics
// without a second lookup.
func (q *WorkQueue) HeartbeatFrom(id string, p *WorkerProgress, origin string) (worker string, ok bool, ev workEvents) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opt.Clock()
	ev = q.expire(now, origin)
	l, live := q.leases[id]
	if !live {
		return "", false, ev
	}
	l.deadline = now.Add(q.opt.LeaseTTL)
	rec := q.touch(l.worker, now)
	if p != nil {
		rec.progress = *p
	}
	return l.worker, true, ev
}

// Complete settles a lease, folding the worker's final progress
// snapshot (nil: none reported) into its fleet record — batches often
// finish before their first heartbeat fires, and the fleet view must
// still see the work. With failed=false every cell in the batch was
// committed by the worker and is counted done. With failed=true (some
// cell errored mid-batch) the batch is re-checked against the store:
// committed cells — including the failing cell's recorded failure —
// count done, the rest requeue immediately. Since every deterministic
// failure commits a negative record before the worker reports it,
// each failed requeue is strictly smaller: poisoned cells cannot
// loop. ok=false means the lease had already been revoked.
func (q *WorkQueue) Complete(id string, failed bool, p *WorkerProgress) (worker string, ok bool, ev workEvents) {
	return q.CompleteFrom(id, failed, p, "")
}

// CompleteFrom is Complete carrying the settling request's propagated
// span id (the parent of a failed batch's requeue).
func (q *WorkQueue) CompleteFrom(id string, failed bool, p *WorkerProgress, origin string) (worker string, ok bool, ev workEvents) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opt.Clock()
	ev = q.expire(now, origin)
	l, live := q.leases[id]
	if !live {
		return "", false, ev
	}
	delete(q.leases, id)
	q.settled()
	worker = l.worker
	rec := q.touch(l.worker, now)
	if rec.lease == id {
		rec.lease = ""
	}
	if p != nil {
		rec.progress = *p
	}
	if !failed {
		q.done += len(l.cells)
		q.journalLease(l, now, "completed", 0)
		q.logf("coordinator: lease %s (%s) complete: %d cells (%d/%d done)",
			l.id, l.worker, len(l.cells), q.done, q.total)
		return worker, true, ev
	}
	remaining := q.dropCommitted(l.cells)
	ev.requeuedCells += len(remaining)
	if len(remaining) > 0 {
		q.pending = append([][]WorkCell{remaining}, q.pending...)
		q.requeue++
	}
	q.journalLease(l, now, "failed", len(remaining))
	q.journalRequeue(l, now, origin, len(remaining))
	q.logf("coordinator: lease %s (%s) failed: %d cells committed, %d requeued (%d/%d done)",
		l.id, l.worker, len(l.cells)-len(remaining), len(remaining), q.done, q.total)
	return worker, true, ev
}

// Status snapshots the queue (expiring overdue leases first, so an
// idle coordinator's status is still truthful).
func (q *WorkQueue) Status() (WorkStatus, workEvents) {
	st, _, ev := q.Fleet()
	return st, ev
}

// Fleet snapshots the queue and every worker the coordinator has
// heard from, workers sorted by name for deterministic rendering.
func (q *WorkQueue) Fleet() (WorkStatus, []WorkerStatus, workEvents) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opt.Clock()
	ev := q.expire(now, "")
	pending, leased := 0, 0
	for _, b := range q.pending {
		pending += len(b)
	}
	for _, l := range q.leases {
		leased += len(l.cells) // counter accumulation: order-insensitive
	}
	st := WorkStatus{
		Study:           q.opt.Study,
		Stamp:           q.stamp,
		TotalCells:      q.total,
		DoneCells:       q.done,
		PendingCells:    pending,
		LeasedCells:     leased,
		ActiveLeases:    len(q.leases),
		ExpiredLeases:   q.expired,
		Requeues:        q.requeue,
		Done:            q.done == q.total && len(q.leases) == 0 && len(q.pending) == 0,
		HeartbeatMillis: q.opt.Heartbeat.Milliseconds(),
	}
	names := make([]string, 0, len(q.workers))
	for name := range q.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	workers := make([]WorkerStatus, 0, len(names))
	for _, name := range names {
		rec := q.workers[name]
		ws := WorkerStatus{
			Name:           name,
			Lease:          rec.lease,
			Batches:        rec.batches,
			LastSeenMillis: now.Sub(rec.lastSeen).Milliseconds(),
			Stale:          !st.Done && now.Sub(rec.lastSeen) > 3*q.opt.Heartbeat,
			Progress:       rec.progress,
		}
		if l, ok := q.leases[rec.lease]; ok {
			ws.LeaseCells = len(l.cells)
		}
		workers = append(workers, ws)
	}
	return st, workers, ev
}
