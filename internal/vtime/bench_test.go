package vtime

// Microbenchmarks for the scheduling hot path. Every simulated MPI
// message funnels through Sync/Block/Wake, so ns-per-scheduling-point
// here multiplies into wall time of every figure sweep. The suite
// covers the dominant shapes:
//
//	PingPongBlockWake  — two procs alternating Block/Wake (rendezvous p2p)
//	PingPongSync       — two procs alternating through Sync yields
//	SyncFastPath       — Sync that never yields (earliest proc re-syncing)
//	BarrierWakeAll     — one proc releasing N-1 blocked procs at once
//	SkewedClocks       — N procs with uneven advances (heap churn)
//
// Each benchmark reports ns/switch: wall time divided by the number of
// context switches the iteration performs.

import (
	"testing"

	"repro/internal/units"
)

// reportPerSwitch reports the benchmark's elapsed time divided over
// the context switches its iterations performed.
func reportPerSwitch(b *testing.B, switches int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(switches), "ns/switch")
}

// BenchmarkPingPongBlockWake is the rendezvous point-to-point pattern:
// exactly two procs handing control back and forth, each Wake followed
// by a Block. Two switches per iteration.
func BenchmarkPingPongBlockWake(b *testing.B) {
	s := NewScheduler(2)
	procs := s.Procs()
	s.Run(func(p *Proc) {
		peer := procs[1-p.ID]
		if p.ID == 1 {
			p.Block("start")
		} else {
			// Yield once so proc 1 reaches its Block before the first Wake.
			p.Advance(units.Microsecond)
			p.Sync()
		}
		for i := 0; i < b.N; i++ {
			p.Wake(peer, p.Now())
			p.Block("pingpong")
		}
		if p.ID == 0 {
			p.Wake(peer, p.Now())
		}
	})
	reportPerSwitch(b, 2*b.N)
}

// BenchmarkPingPongSync is the two-proc Sync alternation: each proc
// advances past the other and yields, so every Sync is a full context
// switch through the run queue.
func BenchmarkPingPongSync(b *testing.B) {
	s := NewScheduler(2)
	s.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(units.Microsecond)
			p.Sync()
		}
	})
	reportPerSwitch(b, 2*b.N)
}

// BenchmarkSyncFastPath measures a Sync that never yields: with a
// single proc the heap stays empty and the call must return without
// touching the scheduler.
func BenchmarkSyncFastPath(b *testing.B) {
	s := NewScheduler(1)
	s.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sync()
		}
	})
}

// barrier synchronizes n procs through Block/Wake: every proc but the
// last arriver parks, and the last arriver releases them all — the
// shape of a centralized barrier and of a collective's fan-out wake.
type barrier struct {
	waiting []*Proc
	n       int
}

func (bar *barrier) arrive(p *Proc) {
	if len(bar.waiting) < bar.n-1 {
		bar.waiting = append(bar.waiting, p)
		p.Block("barrier")
		return
	}
	for _, q := range bar.waiting {
		p.Wake(q, p.Now())
	}
	bar.waiting = bar.waiting[:0]
}

// BenchmarkBarrierWakeAll is the batched-wake path: 15 procs parked,
// the 16th wakes them back to back, so they reach the run queue in one
// flush. 16 switches per round.
func BenchmarkBarrierWakeAll(b *testing.B) {
	const procs = 16
	s := NewScheduler(procs)
	bar := &barrier{n: procs}
	s.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(units.Microsecond)
			bar.arrive(p)
		}
	})
	reportPerSwitch(b, procs*b.N)
}

// BenchmarkSkewedClocks drives a 16-proc heap with uneven advances, so
// the run queue reorders constantly — the worst case for heap traffic.
func BenchmarkSkewedClocks(b *testing.B) {
	const procs = 16
	s := NewScheduler(procs)
	s.Run(func(p *Proc) {
		step := units.Seconds(p.ID%7+1) * units.Microsecond
		for i := 0; i < b.N; i++ {
			p.Advance(step)
			p.Sync()
		}
	})
	reportPerSwitch(b, procs*b.N)
}
