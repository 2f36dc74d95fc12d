package profile

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
	"repro/internal/vtime"
)

// sec builds a units.Seconds from an exactly-representable float.
func sec(v float64) units.Seconds { return units.Seconds(v) }

// stream builds an event log the way the kernel and the MPI layer
// append to it.
type stream struct{ log vtime.Log }

func (s *stream) park(id int32, tag string, at float64) {
	s.log.Add(vtime.Event{Kind: vtime.EvPark, A: id, T0: sec(at)}, tag)
}

func (s *stream) wake(waker, woken int32, now, wakerNow float64) {
	s.log.Add(vtime.Event{Kind: vtime.EvWake, A: waker, B: woken, T0: sec(now), T1: sec(wakerNow)}, "")
}

func (s *stream) idle(id int32, tag string, from, to float64) {
	s.log.Add(vtime.Event{Kind: vtime.EvIdle, A: id, T0: sec(from), T1: sec(to)}, tag)
}

func (s *stream) message(src, dst, tag int32, size units.ByteSize, transport string, sent, arrived float64) {
	s.log.Add(vtime.Event{Kind: vtime.EvMessage, A: src, B: dst, C: tag, T0: sec(sent), T1: sec(arrived), Size: size}, transport)
}

func (s *stream) phaseBegin(rank int32, name string, at float64) {
	s.log.Add(vtime.Event{Kind: vtime.EvPhaseBegin, A: rank, T0: sec(at)}, name)
}

func (s *stream) phaseEnd(rank int32, name string, at float64) {
	s.log.Add(vtime.Event{Kind: vtime.EvPhaseEnd, A: rank, T0: sec(at)}, name)
}

// recordSample logs a two-rank scenario touching every category: rank 0
// idles catching up to a completed send, rank 1 blocks on a recv
// released by rank 0's send and then waits inside an Allreduce. All
// times are dyadic rationals, so every boundary is exact.
func recordSample() *vtime.Log {
	s := &stream{}
	// Rank 0: idle catch-up [3, 4].
	s.idle(0, "wait:isend", 3, 4)
	// Rank 1: p2p wait [2, 5], released by rank 0 acting at its clock 4.5;
	// the releasing message completes immediately before the wake.
	s.park(1, "wait:irecv", 2)
	s.message(0, 1, 7, 8192, "ib", 4.5, 5)
	s.wake(0, 1, 5, 4.5)
	// Both ranks run an Allreduce; rank 1 blocks inside it for [6, 7].
	s.phaseBegin(0, "Allreduce", 5.5)
	s.phaseBegin(1, "Allreduce", 6)
	s.park(1, "wait:irecv", 6)
	s.wake(0, 1, 7, 6.5)
	s.phaseEnd(1, "Allreduce", 7)
	s.phaseEnd(0, "Allreduce", 7)
	return &s.log
}

// TestBreakdownPartitionsTotalExactly is the attribution contract: the
// three categories sum to each rank's total virtual time as exact
// float64s, and the cell totals fold the per-rank rows.
func TestBreakdownPartitionsTotalExactly(t *testing.T) {
	p, err := Build("cell", "k", recordSample(), []units.Seconds{sec(10), sec(8)})
	if err != nil {
		t.Fatal(err)
	}
	want := []Breakdown{
		{Total: 10, Compute: 9, P2PWait: 1},
		{Total: 8, Compute: 4, P2PWait: 3, CollectiveWait: 1},
	}
	for id, b := range p.PerRank {
		if sum := b.Compute + b.P2PWait + b.CollectiveWait; sum != b.Total {
			t.Errorf("rank %d: categories sum to %v, total %v (bits differ by %d)",
				id, sum, b.Total, math.Float64bits(float64(sum))^math.Float64bits(float64(b.Total)))
		}
		if b != want[id] {
			t.Errorf("rank %d breakdown = %+v, want %+v", id, b, want[id])
		}
	}
	if sum := p.Totals.Compute + p.Totals.P2PWait + p.Totals.CollectiveWait; sum != p.Totals.Total {
		t.Errorf("cell categories sum to %v, total %v", sum, p.Totals.Total)
	}
	if p.Totals.Total != 18 {
		t.Errorf("cell total = %v, want 18", p.Totals.Total)
	}
	if p.Makespan != 10 {
		t.Errorf("makespan = %v, want 10", p.Makespan)
	}
	wantPhases := []PhaseStat{{Name: "Allreduce", Count: 2, Seconds: 2.5, Wait: 1}}
	if !reflect.DeepEqual(p.Phases, wantPhases) {
		t.Errorf("phases = %+v, want %+v", p.Phases, wantPhases)
	}
}

// TestCriticalPathTilesMakespan: the path's segments tile [0, makespan]
// with exactly-shared boundaries, so its composition sums to the
// makespan; a release edge crosses to the waker with the blocked time
// as slack.
func TestCriticalPathTilesMakespan(t *testing.T) {
	s := &stream{}
	// Rank 1 finishes last and spent [2, 6] blocked on rank 0, which
	// released it acting at its own clock 5.
	s.park(1, "wait:irecv", 2)
	s.message(0, 1, 9, 4096, "ib", 5, 6)
	s.wake(0, 1, 6, 5)
	p, err := Build("cell", "k", &s.log, []units.Seconds{sec(8), sec(10)})
	if err != nil {
		t.Fatal(err)
	}

	path := p.Path
	if n := len(path.Segments); n == 0 {
		t.Fatal("empty critical path")
	}
	if first, last := path.Segments[0], path.Segments[len(path.Segments)-1]; first.From != 0 || last.To != p.Makespan {
		t.Fatalf("path spans [%v,%v], want [0,%v]", first.From, last.To, p.Makespan)
	}
	var length units.Seconds
	for i, s := range path.Segments {
		if i > 0 && s.From != path.Segments[i-1].To {
			t.Fatalf("segment %d starts at %v, previous ended at %v", i, s.From, path.Segments[i-1].To)
		}
		length += s.To - s.From
	}
	if length != p.Makespan {
		t.Errorf("path length %v != makespan %v", length, p.Makespan)
	}
	if sum := path.Compute + path.Comm; sum != p.Makespan {
		t.Errorf("path composition sums to %v, want %v", sum, p.Makespan)
	}

	// Exact shape: rank 0 computes [0,5], its release reaches rank 1 at
	// 6 (slack = the 4 s rank 1 sat blocked), rank 1 computes [6,10].
	want := []PathSegment{
		{Rank: 0, Kind: "compute", From: 0, To: 5},
		{Rank: 0, Kind: "comm", From: 5, To: 6, Label: "0->1 tag 9 4.00 KiB over ib", Slack: 4},
		{Rank: 1, Kind: "compute", From: 6, To: 10},
	}
	if !reflect.DeepEqual(path.Segments, want) {
		t.Errorf("segments = %+v, want %+v", path.Segments, want)
	}
	if path.Hops != 1 {
		t.Errorf("hops = %d, want 1", path.Hops)
	}
}

// TestRecorderRejectsInconsistentStreams: a broken event log (or a
// wait partition that fails to tile the timeline) is an error, never a
// silently wrong report.
func TestRecorderRejectsInconsistentStreams(t *testing.T) {
	ends := []units.Seconds{sec(10), sec(10)}
	cases := []struct {
		name string
		log  func(s *stream)
		ends []units.Seconds
		want string
	}{
		{"double park", func(s *stream) {
			s.park(0, "wait:irecv", 1)
			s.park(0, "wait:isend", 2)
		}, ends, "parked twice"},
		{"wake without park", func(s *stream) {
			s.wake(1, 0, 3, 2)
		}, ends, "woken without park"},
		{"phase close without open", func(s *stream) {
			s.phaseEnd(0, "Barrier", 4)
		}, ends, "without matching open"},
		{"still parked at end", func(s *stream) {
			s.park(0, "wait:irecv", 1)
		}, ends, "still parked"},
		{"still inside phase at end", func(s *stream) {
			s.phaseBegin(0, "Allreduce", 1)
		}, ends, "still inside phase"},
		{"wait past rank end", func(s *stream) {
			s.idle(0, "wait:irecv", 8, 12)
		}, ends, "breaks the timeline partition"},
		{"overlapping waits", func(s *stream) {
			s.idle(0, "wait:irecv", 2, 6)
			s.idle(0, "wait:isend", 4, 8)
		}, ends, "breaks the timeline partition"},
		{"events beyond world size", func(s *stream) {
			s.idle(3, "wait:irecv", 1, 2)
		}, ends, "beyond world size"},
		{"no ranks", func(*stream) {}, nil, "no ranks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &stream{}
			tc.log(s)
			_, err := Build("cell", "k", &s.log, tc.ends)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestProfileFileRoundTripDeterministic: WriteFile is byte-identical
// across writes, and ReadFile/ReadDir restore the exact profile.
func TestProfileFileRoundTripDeterministic(t *testing.T) {
	p, err := Build("cell a", "1111111111111111111111111111111111111111111111111111111111111111",
		recordSample(), []units.Seconds{sec(10), sec(8)})
	if err != nil {
		t.Fatal(err)
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	for _, dir := range []string{dir1, dir2} {
		if err := p.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
	}
	name := p.Key + ".profile.json"
	b1, err := os.ReadFile(filepath.Join(dir1, name))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(filepath.Join(dir2, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two writes of the same profile differ")
	}
	back, err := ReadFile(filepath.Join(dir1, name))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("round trip changed the profile:\n%+v\n%+v", back, p)
	}
	all, err := ReadDir(dir1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || !reflect.DeepEqual(all[0], p) {
		t.Fatalf("ReadDir = %+v", all)
	}
}

// TestReadDirEmpty: an un-traced directory is a friendly error telling
// the user to rerun with -trace.
func TestReadDirEmpty(t *testing.T) {
	_, err := ReadDir(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("err = %v, want a hint to rerun with -trace", err)
	}
}
