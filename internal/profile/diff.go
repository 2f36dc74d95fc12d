package profile

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/report"
	"repro/internal/units"
)

// DiffRow is one attribution line of an A-vs-B comparison, in
// per-rank-mean seconds so rows are comparable to the makespan delta.
type DiffRow struct {
	Name    string        `json:"name"`
	A       units.Seconds `json:"a"`
	B       units.Seconds `json:"b"`
	Delta   units.Seconds `json:"delta"`
	IsPhase bool          `json:"isPhase"`
}

// DiffReport attributes the makespan delta between two cells (B − A)
// to attribution categories and to named collective phases. It is a
// wire type for `analyze -diff` JSON output.
type DiffReport struct {
	ALabel     string        `json:"aLabel"`
	BLabel     string        `json:"bLabel"`
	AMakespan  units.Seconds `json:"aMakespan"`
	BMakespan  units.Seconds `json:"bMakespan"`
	Delta      units.Seconds `json:"delta"`
	Categories []DiffRow     `json:"categories"`
	Phases     []DiffRow     `json:"phases"`
}

// Diff compares two cell profiles. Categories come from the
// per-rank-mean breakdowns; phases from the per-collective span totals
// (union of names, per-rank mean), so a runtime that slows one
// collective shows up as that collective's row.
func Diff(a, b *CellProfile) *DiffReport {
	d := &DiffReport{
		ALabel: a.Label, BLabel: b.Label,
		AMakespan: a.Makespan, BMakespan: b.Makespan,
		Delta: b.Makespan - a.Makespan,
	}
	an, bn := units.Seconds(a.Ranks), units.Seconds(b.Ranks)
	cat := func(name string, av, bv units.Seconds) {
		av, bv = av/an, bv/bn
		d.Categories = append(d.Categories, DiffRow{Name: name, A: av, B: bv, Delta: bv - av})
	}
	cat("compute", a.Totals.Compute, b.Totals.Compute)
	cat("p2pWait", a.Totals.P2PWait, b.Totals.P2PWait)
	cat("collectiveWait", a.Totals.CollectiveWait, b.Totals.CollectiveWait)

	phase := func(p *CellProfile, name string) units.Seconds {
		for _, ph := range p.Phases {
			if ph.Name == name {
				return ph.Seconds
			}
		}
		return 0
	}
	names := map[string]bool{}
	for _, ph := range a.Phases {
		names[ph.Name] = true
	}
	for _, ph := range b.Phases {
		names[ph.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		av, bv := phase(a, n)/an, phase(b, n)/bn
		d.Phases = append(d.Phases, DiffRow{Name: n, A: av, B: bv, Delta: bv - av, IsPhase: true})
	}
	return d
}

// DiffText renders the comparison: the makespan delta, then the
// category and phase rows that explain it.
func DiffText(w io.Writer, d *DiffReport) {
	fmt.Fprintf(w, "A = %s (makespan %s)\nB = %s (makespan %s)\ndelta (B-A) = %s (%s)\n",
		d.ALabel, report.Seconds(d.AMakespan), d.BLabel, report.Seconds(d.BMakespan),
		report.Seconds(d.Delta), pct(d.Delta, d.AMakespan))
	t := report.NewTable("Attribution of the delta (per-rank mean seconds)",
		"where", "A", "B", "delta", "share")
	for _, row := range d.Categories {
		t.AddRow(row.Name, report.Seconds(row.A), report.Seconds(row.B),
			report.Seconds(row.Delta), share(row.Delta, d.Delta))
	}
	t.Render(w)
	if len(d.Phases) == 0 {
		return
	}
	t = report.NewTable("By collective phase (per-rank mean seconds)",
		"collective", "A", "B", "delta", "share")
	for _, row := range d.Phases {
		t.AddRow(row.Name, report.Seconds(row.A), report.Seconds(row.B),
			report.Seconds(row.Delta), share(row.Delta, d.Delta))
	}
	t.Render(w)
}

// share renders part as a percentage of the (possibly negative)
// makespan delta; "-" when the delta is zero.
func share(part, delta units.Seconds) string {
	if delta == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(delta))
}
