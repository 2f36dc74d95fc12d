package profile

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// PathReport is the critical path through the happens-before graph:
// the chain of rank segments and release edges that ends at the cell's
// makespan. Its segments tile [0, makespan] exactly — walking the
// partition backward from the last-finishing rank, every instant is on
// exactly one segment — so the path's length equals the makespan by
// construction.
type PathReport struct {
	// Segments in chronological order. Adjacent segments share their
	// boundary time exactly (To of one == From of the next).
	Segments []PathSegment `json:"segments"`
	// Composition of the path by segment kind.
	Compute units.Seconds `json:"compute"`
	Comm    units.Seconds `json:"comm"`
	// Hops counts rank changes along the path.
	Hops int `json:"hops"`
}

// PathSegment is one span of the critical path.
type PathSegment struct {
	// Rank whose activity occupies this span of the path. For a comm
	// edge this is the releasing rank: the span covers its completion
	// action plus the wire flight to the released rank.
	Rank int `json:"rank"`
	// Kind is "compute" or "comm" (a message/release edge or in-flight
	// arrival wait).
	Kind string        `json:"kind"`
	From units.Seconds `json:"from"`
	To   units.Seconds `json:"to"`
	// Label details the span: the wait tag, the enclosing collective,
	// or the releasing message ("12->13 tag -2000 8.0 KiB over ib").
	Label string `json:"label,omitempty"`
	// Slack, on comm edges, is how much the edge could speed up before
	// the released rank's own program order becomes the binding
	// constraint (its blocked time under this dependency). Zero-slack
	// edges arrived exactly when the receiver was ready.
	Slack units.Seconds `json:"slack,omitempty"`
}

// criticalPath walks the happens-before graph backward from the
// last-finishing rank. At each blocked wait it crosses to the rank
// that performed the release, at that rank's clock at the instant of
// the releasing action (the Wake seam's wakerNow) — the exact causal
// source. Idle catch-ups (message flight already under way) stay on the
// same rank. Each wait is consumed at most once, so the walk terminates
// even through zero-duration release chains.
func (r *recorder) criticalPath(rankEnd []units.Seconds, makespan units.Seconds) (PathReport, error) {
	cur := 0
	for id, end := range rankEnd {
		if end > rankEnd[cur] {
			cur = id
		}
	}
	// consumed[rank] is the lower bound (exclusive) of wait indices the
	// walk may still use on that rank; waits are consumed newest-first.
	consumed := make([]int, len(rankEnd))
	for id := range consumed {
		consumed[id] = len(r.ranks[id].waits)
	}

	var segs []PathSegment // built backward, reversed at the end
	t := rankEnd[cur]
	for {
		waits := r.ranks[cur].waits
		// Latest unconsumed wait on cur ending at or before t.
		idx := sort.Search(consumed[cur], func(i int) bool { return waits[i].to > t }) - 1
		if idx < 0 {
			segs = appendSeg(segs, PathSegment{Rank: cur, Kind: "compute", From: 0, To: t})
			break
		}
		w := waits[idx]
		consumed[cur] = idx
		segs = appendSeg(segs, PathSegment{Rank: cur, Kind: "compute", From: w.to, To: t})
		switch {
		case w.by < 0:
			// Idle catch-up: an in-flight arrival; the constraint lives on
			// this rank's timeline.
			segs = appendSeg(segs, PathSegment{Rank: cur, Kind: "comm", From: w.from, To: w.to, Label: r.pathLabel(w)})
			t = w.from
		default:
			// Release edge: cross to the releasing rank at its clock at
			// the moment of the release.
			jump := w.wakerAt
			if jump > w.to {
				jump = w.to
			}
			segs = appendSeg(segs, PathSegment{
				Rank: int(w.by), Kind: "comm", From: jump, To: w.to,
				Label: r.pathLabel(w), Slack: w.to - w.from,
			})
			cur, t = int(w.by), jump
		}
		if t <= 0 {
			break
		}
	}

	// Reverse into chronological order and total the composition.
	rep := PathReport{Segments: make([]PathSegment, 0, len(segs))}
	for i := len(segs) - 1; i >= 0; i-- {
		rep.Segments = append(rep.Segments, segs[i])
	}
	last := -1
	for _, s := range rep.Segments {
		switch s.Kind {
		case "compute":
			rep.Compute += s.To - s.From
		case "comm":
			rep.Comm += s.To - s.From
		}
		if last >= 0 && s.Rank != last {
			rep.Hops++
		}
		last = s.Rank
	}
	if n := len(rep.Segments); n > 0 {
		if rep.Segments[0].From != 0 || rep.Segments[n-1].To != makespan {
			return PathReport{}, fmt.Errorf("profile: critical path spans [%v,%v], want [0,%v]",
				rep.Segments[0].From, rep.Segments[n-1].To, makespan)
		}
		for i := 1; i < n; i++ {
			if rep.Segments[i].From != rep.Segments[i-1].To {
				return PathReport{}, fmt.Errorf("profile: critical path gap at %v: segment %d starts at %v",
					rep.Segments[i-1].To, i, rep.Segments[i].From)
			}
		}
	}
	return rep, nil
}

// appendSeg drops zero-duration spans (degenerate boundaries at shared
// instants) so reports stay readable; partition exactness is kept
// because a dropped span's endpoints coincide.
func appendSeg(segs []PathSegment, s PathSegment) []PathSegment {
	if s.To <= s.From {
		return segs
	}
	return append(segs, s)
}

// pathLabel describes a wait for the path report.
func (r *recorder) pathLabel(w wait) string {
	if w.msg >= 0 {
		m := r.msgs[w.msg]
		return fmt.Sprintf("%d->%d tag %d %s over %s", m.A, m.B, m.C, m.Size, r.log.Name(m.Name))
	}
	tag := r.log.Name(w.tag)
	if w.phase != 0 {
		return r.paths[w.phase] + ";" + tag
	}
	return tag
}
