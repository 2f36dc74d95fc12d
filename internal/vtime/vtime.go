// Package vtime implements the deterministic virtual-time execution
// kernel underneath the simulator.
//
// Simulated processes (MPI ranks, deployment agents, ...) are
// coroutines, each on a goroutine of its own, and they never run
// concurrently: exactly one process is running at a time, always the
// runnable process with the smallest virtual clock (ties broken by
// process id). Processes advance their own clocks with model costs and
// interact only at explicit scheduling points, so every shared model
// structure (message queues, NIC reservations, filesystem bandwidth) is
// accessed in a single, reproducible virtual-time order without any
// locking.
//
// This is the classic conservative sequential discrete-event design,
// expressed with coroutines so that rank programs read as straight-line
// imperative code.
//
// # Direct handoff
//
// The process that leaves the running state — a Sync that must yield, a
// Block, a body that returns — chooses its successor itself, straight
// off the run queue, and leaves it for the dispatcher, which is the
// goroutine that called Run. A switch is therefore rank → dispatcher →
// rank: two coroutine switches (iter.Pull's yield and next), each a
// direct goroutine-to-goroutine transfer on one OS thread that never
// enters the Go scheduler — no run queue, no wakeup of an idle P, no
// futex. The dispatcher does only the accounting (the Switches counter
// and the log's switch event); who runs next was already decided. One structural
// lever rides on that shape: wakes are deferred. Wake parks the woken
// process on a pending list (no heap traffic) and the kernel folds the
// whole list into the run queue in one batched insert at the next yield
// point. There is no bulk-wake call: a batch is whatever single Wakes
// pile up before the waker's next yield point (a Sync that takes the
// fast path is not one), and k such waiters cost one bulk operation
// instead of k pushes. Sync stays exact because its fast-path test
// consults the pending minimum alongside the heap minimum.
//
// A coroutine switch is a synchronisation point (iter.Pull tells the
// race detector so), which makes the single-running-process invariant a
// memory-ordering guarantee too: every scheduler and model mutation a
// process performs is ordered before the next process observes it.
//
// The coroutines are created inside Run and resumed only from it, so
// Run may be called from any goroutine, thread-locked or not, and
// Schedulers may run concurrently on different goroutines. A body must
// not change its runtime.LockOSThread state across a scheduling point
// (the runtime throws on the next switch) nor call runtime.Goexit — so
// no t.Fatal inside one — which would surface on Run's goroutine. When
// Run gives up (deadlock, a panicking body) it first unwinds every
// unfinished process: deferred calls run, no goroutine stays parked.
package vtime

import (
	"fmt"
	"iter"
	"sort"

	"repro/internal/units"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Counters exposes the kernel's scheduling-path counters, so perf
// regressions on the hot path are observable from sweeps and the CLI.
type Counters struct {
	// Switches counts direct handoffs between processes.
	Switches int64
	// SyncFast counts Sync calls resolved without yielding.
	SyncFast int64
	// PingPong always reads 0: the two-process fast slot it counted
	// never fired at figure scale and was removed; the field stays
	// because the trace schema and the -v kernel line name it.
	PingPong int64
	// Wakes counts processes made runnable by Wake.
	Wakes int64
	// WakeBatches counts bulk flushes that folded more than one
	// pending waiter into the run queue in a single operation.
	WakeBatches int64
	// HeapOps counts run-queue heap operations (pushes and pops).
	HeapOps int64
}

// Add returns the field-wise sum of c and o: how per-cell counters
// aggregate over a sweep.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Switches:    c.Switches + o.Switches,
		SyncFast:    c.SyncFast + o.SyncFast,
		PingPong:    c.PingPong + o.PingPong,
		Wakes:       c.Wakes + o.Wakes,
		WakeBatches: c.WakeBatches + o.WakeBatches,
		HeapOps:     c.HeapOps + o.HeapOps,
	}
}

// Proc is one simulated process. All methods must be called from the
// process's own goroutine while it is the running process, except
// Wake, which a running process calls on blocked peers.
type Proc struct {
	ID    int
	sched *Scheduler

	now   units.Seconds
	state procState
	// The proc's coroutine (iter.Pull, in Run): the dispatcher's next
	// resumes it until it parks or finishes, its own yield parks it
	// (false: abandoned, unwind), stop reclaims it unresumed.
	next     func() (struct{}, bool)
	yield    func(struct{}) bool
	stop     func()
	heapIdx  int
	blockTag string // diagnostic: what the proc is blocked on
}

// Now returns the process's virtual clock.
func (p *Proc) Now() units.Seconds { return p.now }

// Advance adds a model cost to the process's clock without yielding.
// Negative durations are a programming error.
func (p *Proc) Advance(d units.Seconds) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: proc %d advanced by negative duration %v", p.ID, d))
	}
	p.now += d
}

// AdvanceTo moves the clock forward to t if t is later than now.
func (p *Proc) AdvanceTo(t units.Seconds) {
	if t > p.now {
		p.now = t
	}
}

// Sync yields so that every process with an earlier virtual clock runs
// first. Call it before touching shared model state; afterwards the
// process is guaranteed to be the earliest actor.
func (p *Proc) Sync() {
	p.checkRunning("Sync")
	s := p.sched
	// Fast path: when no runnable process — heaped or pending wake —
	// precedes this one in (time, ID) order, the handoff would come
	// straight back, so the switch can be skipped. Blocked processes
	// cannot become runnable here (only a running process wakes them),
	// so heap minimum plus pending minimum is the full picture.
	if (len(s.heap) == 0 || s.less(p, s.heap[0])) &&
		(s.pendingMin == nil || s.less(p, s.pendingMin)) {
		s.counters.SyncFast++
		return
	}
	p.state = stateRunnable
	s.flushWakes()
	p.park(s.replaceTop(p))
}

// Block suspends the process until a peer calls Wake on it. The tag is
// reported in deadlock diagnostics.
func (p *Proc) Block(tag string) {
	p.checkRunning("Block")
	p.state = stateBlocked
	p.blockTag = tag
	if l := p.sched.log; l != nil {
		l.Add(Event{Kind: EvPark, A: int32(p.ID), T0: p.now}, tag)
	}
	p.park(p.sched.scheduleNext())
}

// Wake makes a blocked peer runnable with its clock advanced to at (if
// later). It must be called by the currently running process. The wake
// is deferred: the peer joins the run queue in a batched insert at the
// caller's next yield point, which Sync's fast-path test accounts for
// exactly.
func (p *Proc) Wake(q *Proc, at units.Seconds) {
	p.checkRunning("Wake")
	if q.state != stateBlocked {
		panic(fmt.Sprintf("vtime: proc %d woke proc %d which is not blocked (state %d)", p.ID, q.ID, q.state))
	}
	q.AdvanceTo(at)
	q.state = stateRunnable
	q.blockTag = ""
	s := p.sched
	s.pending = append(s.pending, q)
	if s.pendingMin == nil || s.less(q, s.pendingMin) {
		s.pendingMin = q
	}
	s.counters.Wakes++
	if s.log != nil {
		s.log.Add(Event{Kind: EvWake, A: int32(p.ID), B: int32(q.ID), T0: q.now, T1: p.now}, "")
	}
}

// park hands control to next (nil: nothing is runnable) through the
// dispatcher and returns when this proc is resumed.
func (p *Proc) park(next *Proc) {
	p.sched.successor = next
	if !p.yield(struct{}{}) {
		panic(unwound{})
	}
}

// unwound is the panic that unwinds a parked proc's body when Run
// abandons the simulation; root swallows it.
type unwound struct{}

func (p *Proc) checkRunning(op string) {
	if p.state != stateRunning {
		panic(fmt.Sprintf("vtime: %s called on proc %d which is not running", op, p.ID))
	}
}

// Scheduler owns the set of processes, the runnable heap, and the
// pending-wake batch.
type Scheduler struct {
	procs []*Proc
	heap  []*Proc // min-heap on (now, ID)
	// pending holds procs woken since the last yield point; they join
	// the heap in one batched insert. pendingMin tracks their minimum
	// so Sync's fast-path test stays O(1).
	pending    []*Proc
	pendingMin *Proc
	alive      int
	// successor is the proc a parking or finishing proc chose to run
	// next, left for the dispatcher (nil: nothing is runnable).
	successor *Proc
	// failure records the first process panic, re-raised from Run.
	failure string
	// abandoned: Run is over and unwinding the unfinished procs.
	abandoned bool
	counters  Counters
	// running is the proc currently holding control, tracked so the
	// log can attribute handoffs to their source. Maintained only when
	// a log is attached — the hot path stays untouched without one.
	running *Proc
	log     *Log
}

// NewScheduler creates a scheduler for n processes starting at time 0.
func NewScheduler(n int) *Scheduler {
	s := &Scheduler{
		procs: make([]*Proc, n),
		heap:  make([]*Proc, 0, n),
	}
	for i := range s.procs {
		s.procs[i] = &Proc{
			ID:      i,
			sched:   s,
			heapIdx: -1,
			state:   stateRunnable,
		}
	}
	return s
}

// Procs returns the scheduler's processes, indexed by id.
func (s *Scheduler) Procs() []*Proc { return s.procs }

// Counters returns the kernel counters accumulated so far. Call it
// after Run returns.
func (s *Scheduler) Counters() Counters { return s.counters }

// SetLog attaches the log the kernel appends its switch, park, wake and
// flush events to. Call it before Run; nil detaches.
func (s *Scheduler) SetLog(l *Log) { s.log = l }

// handoff accounts for control passing to next: the previous holder
// has parked or finished (or this is the first dispatch) and next is
// about to be resumed.
func (s *Scheduler) handoff(next *Proc) {
	next.state = stateRunning
	s.counters.Switches++
	if s.log != nil {
		from := int32(-1)
		if s.running != nil {
			from = int32(s.running.ID)
		}
		s.log.Add(Event{Kind: EvSwitch, A: from, B: int32(next.ID), T0: next.now}, "")
		s.running = next
	}
}

// scheduleNext picks the successor of a process leaving the running
// state (blocked or finished): the next runnable process, or nil when
// nothing is runnable (completion or deadlock).
func (s *Scheduler) scheduleNext() *Proc {
	s.flushWakes()
	return s.pop()
}

// root is the bottom frame of p's coroutine: it runs body, then retires
// p and leaves its successor for the dispatcher.
func (s *Scheduler) root(p *Proc, body func(p *Proc)) {
	defer func() {
		r := recover()
		if s.abandoned {
			// Unwound by reclaim: the sentinel, or what a deferred call
			// raised on top of it, must not mask Run's own failure.
			return
		}
		if r != nil {
			s.failure = fmt.Sprintf("vtime: proc %d panicked: %v", p.ID, r)
		}
		p.state = stateDone
		s.alive--
		s.successor = nil
		if s.failure == "" && s.alive > 0 {
			s.successor = s.scheduleNext()
		}
	}()
	body(p)
}

// reclaim unwinds every unfinished proc — never started, runnable or
// blocked — so no goroutine outlives Run; none is left after a clean one.
func (s *Scheduler) reclaim() {
	s.abandoned = true
	for _, p := range s.procs {
		p.stop() // no-op on a finished proc
	}
}

// Run starts body(i, proc) for every process and drives the simulation
// until all processes finish. It returns the maximum final virtual time.
// A deadlock (blocked processes with nothing runnable) panics with a
// diagnostic listing every blocked process and its tag; a panic inside
// a process body is captured and re-raised from Run on the caller's
// goroutine, annotated with the process id.
func (s *Scheduler) Run(body func(p *Proc)) units.Seconds {
	s.alive = len(s.procs)
	// Initial fill: every proc starts at time zero, so appending in
	// ascending-ID order is already a valid heap.
	for i, p := range s.procs {
		p.heapIdx = i
	}
	s.heap = append(s.heap, s.procs...)
	for _, p := range s.procs {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			s.root(p, body)
		})
	}
	defer s.reclaim()
	// Dispatch: resume the chosen proc, and when it parks or finishes
	// take the successor it left.
	for p := s.pop(); p != nil; p = s.successor {
		s.handoff(p)
		p.next()
	}
	if s.failure != "" {
		panic(s.failure)
	}
	if s.alive > 0 {
		s.deadlock()
	}
	var end units.Seconds
	for _, p := range s.procs {
		if p.now > end {
			end = p.now
		}
	}
	return end
}

func (s *Scheduler) deadlock() {
	type stuck struct {
		id  int
		now units.Seconds
		tag string
	}
	var list []stuck
	for _, p := range s.procs {
		if p.state == stateBlocked {
			list = append(list, stuck{p.ID, p.now, p.blockTag})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	msg := "vtime: deadlock —"
	limit := len(list)
	if limit > 16 {
		limit = 16
	}
	for _, st := range list[:limit] {
		msg += fmt.Sprintf(" proc %d @%v [%s];", st.id, st.now, st.tag)
	}
	if len(list) > limit {
		msg += fmt.Sprintf(" ... and %d more", len(list)-limit)
	}
	panic(msg)
}

// heap operations: min-heap ordered by (now, ID).

func (s *Scheduler) less(a, b *Proc) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	return a.ID < b.ID
}

// flushWakes folds the pending-wake batch into the heap. A single
// waiter is pushed; a batch is appended and restored to heap order in
// one operation — sift-ups for batches small against the heap, one
// O(n + k) heapify when the batch rivals it.
func (s *Scheduler) flushWakes() {
	k := len(s.pending)
	if k == 0 {
		return
	}
	if k == 1 {
		s.push(s.pending[0])
	} else {
		s.counters.WakeBatches++
		if s.log != nil {
			var at units.Seconds
			if s.running != nil {
				at = s.running.now
			}
			s.log.Add(Event{Kind: EvFlush, A: int32(k), T0: at}, "")
		}
		s.counters.HeapOps += int64(k)
		n := len(s.heap)
		s.heap = append(s.heap, s.pending...)
		for i := n; i < len(s.heap); i++ {
			s.heap[i].heapIdx = i
		}
		if k > n/4 {
			for i := len(s.heap)/2 - 1; i >= 0; i-- {
				s.down(i)
			}
		} else {
			for i := n; i < len(s.heap); i++ {
				s.up(i)
			}
		}
	}
	s.pending = s.pending[:0]
	s.pendingMin = nil
}

func (s *Scheduler) push(p *Proc) {
	if p.heapIdx != -1 {
		panic(fmt.Sprintf("vtime: proc %d pushed twice", p.ID))
	}
	s.counters.HeapOps++
	s.heap = append(s.heap, p)
	p.heapIdx = len(s.heap) - 1
	s.up(p.heapIdx)
}

func (s *Scheduler) pop() *Proc {
	if len(s.heap) == 0 {
		return nil
	}
	s.counters.HeapOps++
	top := s.heap[0]
	last := len(s.heap) - 1
	s.swap(0, last)
	s.heap = s.heap[:last]
	top.heapIdx = -1
	if last > 0 {
		s.down(0)
	}
	return top
}

// replaceTop pops the heap minimum and inserts p in its place with a
// single sift-down — the combined pop+push a Sync yield performs.
// It keeps: push+pop yields the same schedule and counters, and on
// sim_scale read 4.37 vs 4.23 s (behind in 8 of 10 alternating pairs)
// and 4.47 vs 4.42 s (behind in 4 of 10): inside the spread, but never
// ahead in the median.
func (s *Scheduler) replaceTop(p *Proc) *Proc {
	s.counters.HeapOps += 2
	top := s.heap[0]
	top.heapIdx = -1
	s.heap[0] = p
	p.heapIdx = 0
	s.down(0)
	return top
}

func (s *Scheduler) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heap[i].heapIdx = i
	s.heap[j].heapIdx = j
}

func (s *Scheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Scheduler) down(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(s.heap[l], s.heap[small]) {
			small = l
		}
		if r < n && s.less(s.heap[r], s.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}

// Resource is a serially reusable device (a NIC, a filesystem server, a
// container gateway) in virtual time. ReserveAt must be called by the
// currently running process after Sync, which guarantees requests are
// served in global virtual-time order.
type Resource struct {
	Name   string
	freeAt units.Seconds
}

// NewResource names a resource; the zero value is also usable.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// ReserveAt books the resource for a transfer that starts no earlier
// than start and takes hold; it returns the completion time without
// touching any process clock. Used for offloaded transfers (e.g. NIC
// DMA) whose completion the caller folds into a message arrival time.
func (r *Resource) ReserveAt(start units.Seconds, hold units.Seconds) units.Seconds {
	if hold < 0 {
		panic(fmt.Sprintf("vtime: resource %s reserved at %v for negative duration %v",
			r.Name, start, hold))
	}
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + hold
	return r.freeAt
}
