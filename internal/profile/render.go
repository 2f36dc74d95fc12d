package profile

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/units"
)

// pct renders part as a percentage of whole.
func pct(part, whole units.Seconds) string {
	if whole <= 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// Summary renders the one-line-per-cell attribution table: where each
// cell's virtual time went, as per-rank-mean seconds and percentages.
func Summary(w io.Writer, ps []*CellProfile) {
	t := report.NewTable("Time attribution (per-rank mean seconds)",
		"cell", "ranks", "makespan", "compute", "p2p", "collective", "comm%", "path-comm%")
	for _, p := range ps {
		n := units.Seconds(p.Ranks)
		wait := p.Totals.P2PWait + p.Totals.CollectiveWait
		t.AddRow(p.Label, p.Ranks, report.Seconds(p.Makespan),
			report.Seconds(p.Totals.Compute/n),
			report.Seconds(p.Totals.P2PWait/n),
			report.Seconds(p.Totals.CollectiveWait/n),
			pct(wait, p.Totals.Total),
			pct(p.Path.Comm, p.Makespan))
	}
	t.Render(w)
}

// RankTable renders one cell's per-rank breakdown.
func RankTable(w io.Writer, p *CellProfile) {
	t := report.NewTable(fmt.Sprintf("%s — per-rank attribution (seconds)", p.Label),
		"rank", "total", "compute", "p2p", "collective", "wait%")
	for id, b := range p.PerRank {
		t.AddRow(id, report.Seconds(b.Total), report.Seconds(b.Compute),
			report.Seconds(b.P2PWait), report.Seconds(b.CollectiveWait),
			pct(b.P2PWait+b.CollectiveWait, b.Total))
	}
	t.Render(w)
}

// PhaseTable renders one cell's per-collective totals.
func PhaseTable(w io.Writer, p *CellProfile) {
	if len(p.Phases) == 0 {
		return
	}
	t := report.NewTable(fmt.Sprintf("%s — collectives (seconds over all ranks)", p.Label),
		"collective", "spans", "time", "blocked", "blocked%")
	for _, ph := range p.Phases {
		t.AddRow(ph.Name, ph.Count, report.Seconds(ph.Seconds), report.Seconds(ph.Wait),
			pct(ph.Wait, ph.Seconds))
	}
	t.Render(w)
}

// PathText renders the critical path: composition, then the longest
// segments (top bounds the listing; the full chain lives in the JSON).
func PathText(w io.Writer, p *CellProfile, top int) {
	fmt.Fprintf(w, "%s — critical path (length %s = makespan)\n",
		p.Label, report.Seconds(p.Makespan))
	fmt.Fprintf(w, "  compute %s (%s)  comm %s (%s)  hops %d  segments %d\n",
		report.Seconds(p.Path.Compute), pct(p.Path.Compute, p.Makespan),
		report.Seconds(p.Path.Comm), pct(p.Path.Comm, p.Makespan),
		p.Path.Hops, len(p.Path.Segments))
	idx := longestSegments(p.Path.Segments, top)
	if len(idx) == 0 {
		return
	}
	t := report.NewTable("  longest segments",
		"#", "rank", "kind", "from", "to", "dur", "slack", "detail")
	for _, i := range idx {
		s := p.Path.Segments[i]
		slack := ""
		if s.Kind == "comm" && s.Slack > 0 {
			slack = report.Seconds(s.Slack)
		}
		t.AddRow(i, s.Rank, s.Kind, report.Seconds(s.From), report.Seconds(s.To),
			report.Seconds(s.To-s.From), slack, s.Label)
	}
	t.Render(w)
}

// longestSegments returns the indices of the top longest segments, in
// chronological order (deterministic: duration ties break by index).
func longestSegments(segs []PathSegment, top int) []int {
	if top <= 0 || top > len(segs) {
		top = len(segs)
	}
	idx := make([]int, len(segs))
	for i := range idx {
		idx[i] = i
	}
	// Selection by (duration desc, index asc), then restore order.
	for i := 0; i < top; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			di := segs[idx[best]].To - segs[idx[best]].From
			dj := segs[idx[j]].To - segs[idx[j]].From
			if dj > di || (dj == di && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	idx = idx[:top]
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if idx[j] < idx[i] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	return idx
}

// AttributionCSV writes every cell's per-rank breakdown as CSV.
func AttributionCSV(w io.Writer, ps []*CellProfile) {
	t := report.NewTable("", "cell", "key", "rank", "total", "compute", "p2p_wait", "collective_wait")
	for _, p := range ps {
		for id, b := range p.PerRank {
			t.AddRow(p.Label, p.Key, id, report.Seconds(b.Total), report.Seconds(b.Compute),
				report.Seconds(b.P2PWait), report.Seconds(b.CollectiveWait))
		}
	}
	t.CSV(w)
}

// PhasesCSV writes every cell's per-collective totals as CSV.
func PhasesCSV(w io.Writer, ps []*CellProfile) {
	t := report.NewTable("", "cell", "key", "collective", "spans", "seconds", "blocked")
	for _, p := range ps {
		for _, ph := range p.Phases {
			t.AddRow(p.Label, p.Key, ph.Name, ph.Count, report.Seconds(ph.Seconds), report.Seconds(ph.Wait))
		}
	}
	t.CSV(w)
}

// FoldedText writes one cell's folded stacks ("frame;frame weight"
// lines, weights in virtual nanoseconds) for flamegraph tools. The
// cell label is the root frame.
func FoldedText(w io.Writer, p *CellProfile) {
	for _, f := range p.Folded {
		fmt.Fprintf(w, "%s;%s %d\n", p.Label, f.Stack, f.Nanos)
	}
}
