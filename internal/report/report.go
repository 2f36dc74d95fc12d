// Package report renders experiment results as aligned ASCII tables,
// simple ASCII line charts, and CSV — the textual equivalents of the
// paper's figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/units"
)

// Table is a simple column-aligned text table.
type Table struct {
	// Title is printed above the table.
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	width := make([]int, len(t.headers))
	for i, h := range t.headers {
		width[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len([]rune(c)) > width[i] {
				width[i] = len([]rune(c))
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, width[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	writeCSVRow(w, t.headers)
	for _, row := range t.rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		out[i] = c
	}
	fmt.Fprintln(w, strings.Join(out, ","))
}

func pad(s string, w int) string {
	n := w - len([]rune(s))
	if n <= 0 {
		return s
	}
	return s + strings.Repeat(" ", n)
}

// Seconds formats a duration for table cells with fixed precision.
func Seconds(s units.Seconds) string { return fmt.Sprintf("%.3f", float64(s)) }

// Chart renders series as a crude ASCII line chart: one row per x
// value, one column block per series, plus a bar visualization.
type Chart struct {
	// Title is printed above the chart.
	Title string
	// YLabel names the plotted quantity.
	YLabel string
	// Series are the curves.
	Series []Series
	// Values overrides times with precomputed y values (e.g.
	// speedups); indexed [series][point]. Nil means plot seconds.
	Values [][]float64
}

// Render writes the chart to w.
func (c *Chart) Render(w io.Writer) {
	if len(c.Series) == 0 {
		return
	}
	fmt.Fprintf(w, "%s\n", c.Title)
	val := func(si, pi int) float64 {
		if c.Values != nil {
			return c.Values[si][pi]
		}
		return float64(c.Series[si].Points[pi].T)
	}
	maxV := 0.0
	for si, s := range c.Series {
		for pi := range s.Points {
			if v := val(si, pi); v > maxV {
				maxV = v
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	// Legend.
	for si, s := range c.Series {
		fmt.Fprintf(w, "  [%d] %s\n", si, s.Label)
	}
	fmt.Fprintf(w, "  %-8s %s\n", "x", c.YLabel)
	for pi := range c.Series[0].Points {
		x := c.Series[0].Points[pi].X
		fmt.Fprintf(w, "  %-8d", x)
		for si := range c.Series {
			if pi >= len(c.Series[si].Points) {
				continue
			}
			v := val(si, pi)
			bar := int(v / maxV * 40)
			fmt.Fprintf(w, " [%d] %8.3f %s", si, v, strings.Repeat("*", bar))
			fmt.Fprintf(w, "\n  %-8s", "")
		}
		fmt.Fprintln(w)
	}
}
