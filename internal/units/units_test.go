package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{KiB, "1.00 KiB"},
		{1536, "1.50 KiB"},
		{MiB, "1.00 MiB"},
		{GiB, "1.00 GiB"},
		{2.5 * GiB, "2.50 GiB"},
		{TiB, "1.00 TiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestDecimalUnits(t *testing.T) {
	if KB != 1000 || MB != 1e6 || GB != 1e9 {
		t.Fatalf("decimal units wrong: KB=%v MB=%v GB=%v", float64(KB), float64(MB), float64(GB))
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		in   Rate
		want string
	}{
		{118 * MBps, "118.00 MB/s"},
		{11.2 * GBps, "11.20 GB/s"},
		{500, "500 B/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Rate.String() = %q, want %q", got, c.want)
		}
	}
}

func TestRateTimeFor(t *testing.T) {
	r := 100 * MBps
	if got := r.TimeFor(100 * MB); math.Abs(float64(got)-1) > 1e-12 {
		t.Fatalf("100MB at 100MB/s = %v, want 1s", got)
	}
	if got := Rate(0).TimeFor(1); !math.IsInf(float64(got), 1) {
		t.Fatalf("zero rate should give +Inf, got %v", got)
	}
	if got := Rate(-5).TimeFor(1); !math.IsInf(float64(got), 1) {
		t.Fatalf("negative rate should give +Inf, got %v", got)
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{0, "0s"},
		{1.5, "1.500s"},
		{90, "1.50m"},
		{2 * Hour, "2.00h"},
		{5 * Millisecond, "5.000ms"},
		{3 * Microsecond, "3.000µs"},
		{50 * Nanosecond, "50.0ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestFlopRate(t *testing.T) {
	r := GFlopsRate(2)
	if got := r.TimeFor(4 * GFlop); math.Abs(float64(got)-2) > 1e-12 {
		t.Fatalf("4 GFlop at 2 GFLOP/s = %v, want 2s", got)
	}
	if !strings.Contains(r.String(), "2.00 GFLOP/s") {
		t.Fatalf("FlopRate.String() = %q", r.String())
	}
	if got := FlopRate(0).TimeFor(1); !math.IsInf(float64(got), 1) {
		t.Fatalf("zero flop rate should give +Inf, got %v", got)
	}
}

func TestMinMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max broken")
	}
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Fatal("Min broken")
	}
}

func TestTimeForQuick(t *testing.T) {
	// Property: transfer time scales linearly in size and inversely in
	// rate.
	f := func(sz uint32, rate uint32) bool {
		if rate == 0 {
			return true
		}
		r := Rate(rate)
		s1 := r.TimeFor(ByteSize(sz))
		s2 := r.TimeFor(ByteSize(sz) * 2)
		return math.Abs(float64(s2-2*s1)) <= 1e-9*math.Abs(float64(s2))+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
