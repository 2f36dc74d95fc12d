package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between order statistics; 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

// typical is the median made steady for latencies that come in classes:
// the mean of the samples between the 40th and 60th percentile. Half of
// sim_cold's and sim_real's cells are small by construction, so their
// plain median sits on the boundary between two classes and flips from
// one to the other between runs; the central fifth is composed the same
// way every run. On a one-class distribution the two agree.
func typical(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := int(0.4*float64(len(s))), int(math.Ceil(0.6*float64(len(s))))
	if hi <= lo {
		return median(s)
	}
	return sum(s[lo:hi]) / float64(hi-lo)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// seconds/millis/micros convert a duration into the metric's unit as a
// float with all its digits.
func seconds(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e9 }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// rssPeakMB reads this process's peak resident set (VmHWM) in MB. Each
// workload runs in its own process, so the peak is the workload's.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// hostCalibMS times a fixed integer loop (xorshift, 50M rounds, best of
// three; a tenth of that at the smoke size): a number that moves with
// the host and not with the repo, so result files from different
// machines can be scaled against it.
func hostCalibMS(smoke bool) float64 {
	rounds, reps := 50_000_000, 3
	if smoke {
		rounds, reps = 5_000_000, 1
	}
	best := math.MaxFloat64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < rounds; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		best = math.Min(best, millis(time.Since(start)))
	}
	return best
}

// digest is the hex sha256 of b.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
