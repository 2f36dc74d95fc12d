package vtime

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/units"
)

func TestSingleProcAdvance(t *testing.T) {
	s := NewScheduler(1)
	end := s.Run(func(p *Proc) {
		p.Advance(2 * units.Second)
		p.Advance(500 * units.Millisecond)
	})
	if end != 2.5*units.Second {
		t.Fatalf("end = %v, want 2.5s", end)
	}
}

func TestSchedulerOrdersByVirtualTime(t *testing.T) {
	// Three procs advance by different amounts and record the global
	// order in which they pass Sync points; it must follow virtual
	// time, not goroutine creation order.
	s := NewScheduler(3)
	var order []int
	s.Run(func(p *Proc) {
		// proc 0 -> t=30, proc 1 -> t=10, proc 2 -> t=20
		p.Advance(units.Seconds(30-10*p.ID) * units.Millisecond)
		p.Sync()
		order = append(order, p.ID)
	})
	want := []int{2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sync order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	s := NewScheduler(4)
	var order []int
	s.Run(func(p *Proc) {
		p.Advance(units.Second) // identical clocks
		p.Sync()
		order = append(order, p.ID)
	})
	for i, id := range order {
		if id != i {
			t.Fatalf("tie-break order = %v, want ascending ids", order)
		}
	}
}

func TestBlockWake(t *testing.T) {
	s := NewScheduler(2)
	procs := s.Procs()
	var wokenAt units.Seconds
	s.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Block("test-wait")
			wokenAt = p.Now()
			return
		}
		p.Advance(3 * units.Second)
		p.Sync()
		p.Wake(procs[0], p.Now())
	})
	if wokenAt != 3*units.Second {
		t.Fatalf("woken at %v, want 3s", wokenAt)
	}
}

func TestWakeDoesNotRewindClock(t *testing.T) {
	s := NewScheduler(2)
	procs := s.Procs()
	var after units.Seconds
	s.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Advance(10 * units.Second)
			p.Block("wait")
			after = p.Now()
			return
		}
		p.Advance(1 * units.Second)
		p.Sync()
		p.Wake(procs[0], 2*units.Second) // earlier than blocked proc's clock
	})
	if after != 10*units.Second {
		t.Fatalf("clock rewound to %v", after)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "stuck-forever") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	s := NewScheduler(2)
	s.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Block("stuck-forever")
		}
	})
}

func TestNegativeAdvancePanics(t *testing.T) {
	// The panic fires on the proc goroutine; Run must capture it and
	// re-raise it on the caller's goroutine with the proc id attached.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on negative advance")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "proc 0 panicked") {
			t.Fatalf("panic lacks proc context: %v", r)
		}
	}()
	s := NewScheduler(1)
	s.Run(func(p *Proc) {
		p.Advance(-1)
	})
}

func TestAdvanceTo(t *testing.T) {
	s := NewScheduler(1)
	end := s.Run(func(p *Proc) {
		p.Advance(5 * units.Second)
		p.AdvanceTo(3 * units.Second) // no-op: earlier
		if p.Now() != 5*units.Second {
			t.Errorf("AdvanceTo rewound the clock to %v", p.Now())
		}
		p.AdvanceTo(8 * units.Second)
	})
	if end != 8*units.Second {
		t.Fatalf("end = %v, want 8s", end)
	}
}

func TestResourceSerializes(t *testing.T) {
	// Four procs all want the resource at t=0 for 1s each: completions
	// must be 1, 2, 3, 4 seconds in id order.
	s := NewScheduler(4)
	res := NewResource("disk")
	done := make([]units.Seconds, 4)
	s.Run(func(p *Proc) {
		p.Sync()
		p.AdvanceTo(res.ReserveAt(p.Now(), units.Second))
		done[p.ID] = p.Now()
	})
	for i, d := range done {
		want := units.Seconds(i+1) * units.Second
		if d != want {
			t.Fatalf("proc %d done at %v, want %v", i, d, want)
		}
	}
	if res.BusyTime() != 4*units.Second {
		t.Fatalf("busy time %v, want 4s", res.BusyTime())
	}
}

func TestResourceReserveAt(t *testing.T) {
	res := NewResource("nic")
	end1 := res.ReserveAt(0, units.Second)
	end2 := res.ReserveAt(0, units.Second) // queued behind first
	end3 := res.ReserveAt(5*units.Second, units.Second)
	if end1 != units.Second || end2 != 2*units.Second || end3 != 6*units.Second {
		t.Fatalf("reservations at %v %v %v", end1, end2, end3)
	}
	if res.FreeAt() != 6*units.Second {
		t.Fatalf("free at %v", res.FreeAt())
	}
}

func TestResourceNegativeHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative hold")
		}
	}()
	res := NewResource("x")
	res.ReserveAt(0, -1)
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() units.Seconds {
		s := NewScheduler(64)
		res := NewResource("shared")
		return s.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Advance(units.Seconds(p.ID%7) * units.Millisecond)
				p.Sync()
				p.AdvanceTo(res.ReserveAt(p.Now(), units.Millisecond))
			}
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestPanicWithLivePeers covers panic propagation when the panicking
// proc is not alone: one peer is parked in Block, another is runnable
// in the heap. Run must abandon the simulation and re-raise the
// original panic annotated with the proc id, not deadlock or hang.
func TestPanicWithLivePeers(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "proc 1 panicked") || !strings.Contains(msg, "model bug") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	s := NewScheduler(3)
	s.Run(func(p *Proc) {
		switch p.ID {
		case 0:
			p.Block("waiting-on-dead-peer")
		case 1:
			p.Advance(units.Second)
			p.Sync()
			panic("model bug")
		case 2:
			p.Advance(10 * units.Second) // runnable, scheduled after the panic
			p.Sync()
		}
	})
}

// TestDeadlockTruncation asserts the deadlock diagnostic lists the
// first 16 blocked procs and summarizes the rest, so a 12k-rank
// deadlock stays readable.
func TestDeadlockTruncation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") {
			t.Fatalf("unexpected panic %v", r)
		}
		if !strings.Contains(msg, "proc 15 ") {
			t.Fatalf("diagnostic lost proc 15: %v", msg)
		}
		if strings.Contains(msg, "proc 16 ") {
			t.Fatalf("diagnostic not truncated at 16 procs: %v", msg)
		}
		if !strings.Contains(msg, "... and 4 more") {
			t.Fatalf("diagnostic does not summarize the tail: %v", msg)
		}
	}()
	s := NewScheduler(20)
	s.Run(func(p *Proc) {
		p.Block("stuck")
	})
}

// TestWakeNonBlockedPanics asserts waking a runnable peer is reported
// as the caller's bug, through the usual proc-panic propagation.
func TestWakeNonBlockedPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "proc 0 panicked") || !strings.Contains(msg, "not blocked") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	s := NewScheduler(2)
	procs := s.Procs()
	s.Run(func(p *Proc) {
		if p.ID == 0 {
			p.Wake(procs[1], 0) // proc 1 is runnable, never blocked
		}
	})
}

// TestDeferredWakeVisibleToSync pins the deferred-wake contract: a
// peer woken to an earlier virtual time must run before the waker's
// next Sync returns, even though the wake only joins the heap at that
// yield point.
func TestDeferredWakeVisibleToSync(t *testing.T) {
	s := NewScheduler(2)
	procs := s.Procs()
	var order []int
	s.Run(func(p *Proc) {
		if p.ID == 1 {
			p.Block("early-sleeper")
			order = append(order, 1)
			return
		}
		p.Advance(10 * units.Second)
		p.Sync()
		p.Wake(procs[1], 5*units.Second) // earlier than proc 0's clock
		p.Sync()
		order = append(order, 0)
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("woken-earlier proc did not run before Sync returned: order %v", order)
	}
}

// TestWakeAllOrderAndBatching wakes several peers back to back and
// asserts they resume in (time, ID) order through one batched flush.
func TestWakeAllOrderAndBatching(t *testing.T) {
	const n = 6
	s := NewScheduler(n)
	procs := s.Procs()
	var order []int
	s.Run(func(p *Proc) {
		if p.ID > 0 {
			p.Block("barrier")
			order = append(order, p.ID)
			if p.ID == n-1 {
				p.Wake(procs[0], p.Now()) // last released peer frees the releaser
			}
			return
		}
		p.Advance(units.Second)
		p.Sync() // let every peer park first
		for _, q := range procs[1:] {
			p.Wake(q, 2*units.Second)
		}
		p.Block("after-release") // peers run now
	})
	// All peers woke at the same time, so they must resume in ID order.
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
	c := s.Counters()
	if c.Wakes != n {
		t.Fatalf("counted %d wakes, want %d", c.Wakes, n)
	}
	if c.WakeBatches == 0 {
		t.Fatal("consecutive wakes did not flush as a batch")
	}
}

// TestTwoProcScheduleExact pins the two-proc schedules the removed
// ping-pong fast slot used to serve: a Block/Wake rendezvous and a Sync
// alternation must produce exactly the same run order and switch count
// through the plain heap path, with PingPong reading 0.
func TestTwoProcScheduleExact(t *testing.T) {
	const iters = 3
	check := func(name string, s *Scheduler, order, want []int, switches int64) {
		t.Helper()
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("%s: run order %v, want %v", name, order, want)
		}
		c := s.Counters()
		if c.Switches != switches || c.PingPong != 0 {
			t.Errorf("%s: %d switches, %d ping-pong; want %d, 0", name, c.Switches, c.PingPong, switches)
		}
	}

	var order []int
	s := NewScheduler(2)
	procs := s.Procs()
	s.Run(func(p *Proc) {
		peer := procs[1-p.ID]
		if p.ID == 1 {
			p.Block("start")
		} else {
			p.Advance(units.Microsecond)
			p.Sync()
		}
		for i := 0; i < iters; i++ {
			order = append(order, p.ID)
			p.Wake(peer, p.Now())
			p.Block("pingpong")
		}
		if p.ID == 0 {
			p.Wake(peer, p.Now())
		}
	})
	// Initial handoff, proc 0's Sync to proc 1 and back once it parks,
	// two switches per iteration, and proc 1's resume when proc 0 exits.
	check("block/wake", s, order, []int{0, 1, 0, 1, 0, 1}, 4+2*iters)

	order = nil
	s = NewScheduler(2)
	s.Run(func(p *Proc) {
		for i := 0; i < iters; i++ {
			order = append(order, p.ID)
			p.Advance(units.Microsecond)
			p.Sync()
		}
	})
	// Every Sync finds the peer at an earlier (or equal, lower-ID) clock
	// and is a full switch; add the initial handoff and the one to proc 1
	// when proc 0 exits.
	check("sync", s, order, []int{0, 1, 0, 1, 0, 1}, 2*iters+2)
}

// eventLog is a Tracer that writes every callback and its arguments
// down, one line each.
type eventLog struct{ lines []string }

func (l *eventLog) logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}
func (l *eventLog) Switch(from, to int, now units.Seconds) {
	l.logf("switch %d>%d @%g", from, to, float64(now))
}
func (l *eventLog) Park(id int, tag string, now units.Seconds) {
	l.logf("park %d [%s] @%g", id, tag, float64(now))
}
func (l *eventLog) Wake(waker, woken int, now, wakerNow units.Seconds) {
	l.logf("wake %d>%d @%g from @%g", waker, woken, float64(now), float64(wakerNow))
}
func (l *eventLog) Idle(id int, tag string, from, to units.Seconds) {
	l.logf("idle %d [%s] %g..%g", id, tag, float64(from), float64(to))
}
func (l *eventLog) FlushWakes(k int, now units.Seconds) {
	l.logf("flush %d @%g", k, float64(now))
}

// TestScheduleGolden is the kernel-level twin of the figure goldens: a
// scripted five-proc run — skewed clocks, Sync on its fast and slow
// paths, a gate that releases three waiters in one batch, a proc that
// finishes early — whose complete Tracer event sequence and final
// counters are compared with the literal below. The literal was
// recorded at commit 4f14b8f, when control moved by channel
// park/unpark; it changes only if who runs next changes.
func TestScheduleGolden(t *testing.T) {
	const ms = units.Millisecond
	s := NewScheduler(5)
	log := &eventLog{}
	s.SetTracer(log)
	procs := s.Procs()
	end := s.Run(func(p *Proc) {
		switch p.ID {
		case 0: // the gatekeeper
			p.Advance(5 * ms)
			p.Sync() // slow path: everyone else is earlier
			p.Wake(procs[1], 7*ms)
			p.Wake(procs[2], 6*ms)
			p.Wake(procs[3], 6*ms)
			p.Sync() // fast path: the pending minimum is later than now
			p.Advance(2 * ms)
			p.Sync() // slow path: folds the batch of three
			p.Block("tail")
		case 4: // finishes early
			p.Advance(ms / 2)
			p.Sync()
		default: // the waiters
			p.Advance(units.Seconds(p.ID) * ms)
			p.Sync()
			p.Block("gate")
			p.Advance(ms)
			p.Sync()
			if p.ID == 3 {
				p.Wake(procs[0], p.Now())
			}
		}
	})
	log.logf("end @%g counters %+v", float64(end), s.Counters())
	got := strings.Join(log.lines, "\n")
	if got != scheduleGolden {
		t.Errorf("schedule moved.\ngot:\n%s\nwant:\n%s", got, scheduleGolden)
	}
}

const scheduleGolden = `switch -1>0 @0
switch 0>1 @0
switch 1>2 @0
switch 2>3 @0
switch 3>4 @0
switch 4>1 @0.001
park 1 [gate] @0.001
switch 1>2 @0.002
park 2 [gate] @0.002
switch 2>3 @0.003
park 3 [gate] @0.003
switch 3>0 @0.005
wake 0>1 @0.007 from @0.005
wake 0>2 @0.006 from @0.005
wake 0>3 @0.006 from @0.005
flush 3 @0.007
switch 0>2 @0.006
switch 2>3 @0.006
switch 3>0 @0.007
park 0 [tail] @0.007
switch 0>1 @0.007
switch 1>2 @0.007
switch 2>3 @0.007
wake 3>0 @0.007 from @0.007
switch 3>0 @0.007
switch 0>1 @0.008
end @0.008 counters {Switches:17 SyncFast:2 PingPong:0 Wakes:4 WakeBatches:1 HeapOps:29}`

// TestAbandonedRunReclaimsProcs covers what Run leaves behind when it
// panics: every proc that had not finished — parked in Block, runnable
// in the heap, or never started — is unwound (its deferred calls run)
// and its goroutine ends, so a failed cell leaks nothing into a
// long-lived process; a panic raised by such a deferred call does not
// replace the failure Run reports. The messages are the ones the
// channel kernel produced at commit 4f14b8f, byte for byte.
func TestAbandonedRunReclaimsProcs(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		name     string
		culprit  int // the proc whose own panic is the failure, -1 for none
		body     func(p *Proc)
		wantText string
	}{
		{
			name: "deadlock", culprit: -1,
			body: func(p *Proc) {
				p.Advance(units.Seconds(p.ID%5) * units.Millisecond)
				p.Sync()
				if p.ID%8 == 0 {
					p.Block("stuck")
				}
			},
			wantText: "vtime: deadlock — proc 0 @0s [stuck]; proc 8 @3.000ms [stuck]; proc 16 @1.000ms [stuck]; " +
				"proc 24 @4.000ms [stuck]; proc 32 @2.000ms [stuck]; proc 40 @0s [stuck]; " +
				"proc 48 @3.000ms [stuck]; proc 56 @1.000ms [stuck];",
		},
		{
			name: "panic among parked and runnable peers", culprit: 5,
			body: func(p *Proc) {
				switch {
				case p.ID < 5:
					p.Block("waiting-on-dead-peer")
				case p.ID == 5:
					p.Advance(units.Second)
					p.Sync()
					panic("model bug")
				default:
					p.Advance(2 * units.Second)
					p.Sync()
				}
			},
			wantText: "vtime: proc 5 panicked: model bug",
		},
		{
			name: "panic before any peer started", culprit: 0,
			body:     func(p *Proc) { panic(fmt.Sprintf("bad input %d", p.ID)) },
			wantText: "vtime: proc 0 panicked: bad input 0",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			started, deferred := 0, 0
			var text any
			func() {
				defer func() { text = recover() }()
				NewScheduler(n).Run(func(p *Proc) {
					started++
					defer func() {
						deferred++
						if p.ID != tc.culprit && recover() != nil {
							panic("raised while unwinding")
						}
					}()
					tc.body(p)
				})
			}()
			if text != tc.wantText {
				t.Errorf("Run panicked with\n%v\nwant\n%s", text, tc.wantText)
			}
			if deferred != started {
				t.Errorf("%d procs started but %d ran their deferred calls", started, deferred)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before Run, %d after it panicked", before, after)
			}
		})
	}
}

// TestConcurrentSchedulers runs independent schedulers on several
// goroutines at once, as the sweep pool does with -parallel 2: each
// Run dispatches its own coroutines from whichever goroutine called it,
// and all must produce the serial run's schedule. Meaningful under
// -race, where the kernel's happens-before chain is iter.Pull's.
func TestConcurrentSchedulers(t *testing.T) {
	run := func() (units.Seconds, Counters) {
		s := NewScheduler(64)
		res := NewResource("shared")
		procs := s.Procs()
		end := s.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Advance(units.Seconds(p.ID%7) * units.Millisecond)
				p.Sync()
				p.AdvanceTo(res.ReserveAt(p.Now(), units.Millisecond))
			}
			if p.ID > 0 {
				p.Block("gate")
				return
			}
			p.Advance(units.Second)
			p.Sync() // every peer is parked at the gate by now
			for _, q := range procs[1:] {
				p.Wake(q, p.Now())
			}
		})
		return end, s.Counters()
	}
	wantEnd, wantCounters := run()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if end, c := run(); end != wantEnd || c != wantCounters {
				t.Errorf("concurrent run ended @%v with %+v, serial run @%v with %+v", end, c, wantEnd, wantCounters)
			}
		}()
	}
	wg.Wait()
}
