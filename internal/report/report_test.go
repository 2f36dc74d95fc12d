package report

import (
	"strings"
	"testing"

	"repro/internal/units"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "Name", "Value")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta-long-name", 2.5)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Title", "Name", "Value", "alpha", "beta-long-name", "2.5", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// All rows share the same rendered width (alignment).
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("ignored", "a", "b")
	tb.AddRow("x,y", `quote"me`)
	tb.AddRow("plain", 7)
	var sb strings.Builder
	tb.CSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted:\n%s", out)
	}
	if !strings.Contains(out, `"quote""me"`) {
		t.Fatalf("quote cell not escaped:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("header wrong:\n%s", out)
	}
}

func TestSecondsFormat(t *testing.T) {
	if Seconds(1.23456*units.Second) != "1.235" {
		t.Fatalf("Seconds() = %q", Seconds(1.23456*units.Second))
	}
}

func TestChartRender(t *testing.T) {
	c := Chart{
		Title:  "speedup",
		YLabel: "x",
		Series: []Series{
			{Label: "one", Points: []Point{{X: 4, T: 2}, {X: 8, T: 1}}},
		},
	}
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	for _, want := range []string{"speedup", "[0] one", "4", "8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Empty chart renders nothing and must not panic.
	empty := Chart{}
	sb.Reset()
	empty.Render(&sb)
	if sb.Len() != 0 {
		t.Fatal("empty chart produced output")
	}
}
