// Package units provides the physical quantities used throughout the
// simulator: byte sizes, data rates, and virtual durations.
//
// All model arithmetic is done in float64 seconds and float64 bytes to
// avoid the overflow and rounding traps of time.Duration at the scale of
// a 12,288-core simulation (hundreds of millions of sub-microsecond
// events). Conversion helpers to time.Duration exist only at reporting
// boundaries.
package units

import (
	"fmt"
	"math"
)

// ByteSize is a number of bytes. It is a float64 so that per-byte model
// costs (e.g. LogGP G values multiplied by fractional effective sizes)
// compose without conversions.
type ByteSize float64

// Common byte sizes.
const (
	Byte ByteSize = 1
	KiB           = 1024 * Byte
	MiB           = 1024 * KiB
	GiB           = 1024 * MiB
	TiB           = 1024 * GiB
)

// KB, MB, GB are decimal units, used by network rates and image sizes
// as vendors report them.
const (
	KB ByteSize = 1000 * Byte
	MB          = 1000 * KB
	GB          = 1000 * MB
)

// String renders the size with a binary-prefix unit chosen so the
// mantissa is in [1, 1024).
func (b ByteSize) String() string {
	abs := math.Abs(float64(b))
	switch {
	case abs >= float64(TiB):
		return fmt.Sprintf("%.2f TiB", float64(b/TiB))
	case abs >= float64(GiB):
		return fmt.Sprintf("%.2f GiB", float64(b/GiB))
	case abs >= float64(MiB):
		return fmt.Sprintf("%.2f MiB", float64(b/MiB))
	case abs >= float64(KiB):
		return fmt.Sprintf("%.2f KiB", float64(b/KiB))
	default:
		return fmt.Sprintf("%.0f B", float64(b))
	}
}

// Bytes returns the size as a float64 count of bytes.
func (b ByteSize) Bytes() float64 { return float64(b) }

// Rate is a data rate in bytes per second.
type Rate float64

// Common data rates. Network link rates are decimal (as marketed);
// memory bandwidths use the same decimal convention for consistency.
const (
	BytePerSecond Rate = 1
	KBps               = 1000 * BytePerSecond
	MBps               = 1000 * KBps
	GBps               = 1000 * MBps
)

// String renders the rate with a decimal unit.
func (r Rate) String() string {
	abs := math.Abs(float64(r))
	switch {
	case abs >= float64(GBps):
		return fmt.Sprintf("%.2f GB/s", float64(r/GBps))
	case abs >= float64(MBps):
		return fmt.Sprintf("%.2f MB/s", float64(r/MBps))
	case abs >= float64(KBps):
		return fmt.Sprintf("%.2f KB/s", float64(r/KBps))
	default:
		return fmt.Sprintf("%.0f B/s", float64(r))
	}
}

// TimeFor returns the seconds needed to move size bytes at rate r.
// A non-positive rate yields +Inf, which propagates loudly through any
// model that forgot to configure a link.
func (r Rate) TimeFor(size ByteSize) Seconds {
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(size) / float64(r))
}

// Seconds is a virtual duration or instant measured in seconds.
type Seconds float64

// Common durations.
const (
	Second      Seconds = 1
	Millisecond         = 1e-3 * Second
	Microsecond         = 1e-6 * Second
	Nanosecond          = 1e-9 * Second
	Minute              = 60 * Second
	Hour                = 60 * Minute
)

// String renders the duration with a unit chosen by magnitude.
func (s Seconds) String() string {
	abs := math.Abs(float64(s))
	switch {
	case abs == 0:
		return "0s"
	case abs >= float64(Hour):
		return fmt.Sprintf("%.2fh", float64(s/Hour))
	case abs >= float64(Minute):
		return fmt.Sprintf("%.2fm", float64(s/Minute))
	case abs >= 1:
		return fmt.Sprintf("%.3fs", float64(s))
	case abs >= float64(Millisecond):
		return fmt.Sprintf("%.3fms", float64(s/Millisecond))
	case abs >= float64(Microsecond):
		return fmt.Sprintf("%.3fµs", float64(s/Microsecond))
	default:
		return fmt.Sprintf("%.1fns", float64(s/Nanosecond))
	}
}

// Flops counts floating-point operations.
type Flops float64

// Common op counts.
const (
	Flop  Flops = 1
	KFlop       = 1e3 * Flop
	MFlop       = 1e6 * Flop
	GFlop       = 1e9 * Flop
	TFlop       = 1e12 * Flop
)

// FlopRate is floating-point operations per second.
type FlopRate float64

// GFlopsRate converts GFLOP/s into a FlopRate.
func GFlopsRate(gf float64) FlopRate { return FlopRate(gf * 1e9) }

// String renders the rate in GFLOP/s.
func (f FlopRate) String() string { return fmt.Sprintf("%.2f GFLOP/s", float64(f)/1e9) }

// TimeFor returns the seconds needed to execute w flops at rate f.
func (f FlopRate) TimeFor(w Flops) Seconds {
	if f <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(w) / float64(f))
}

// Max returns the larger of two durations.
func Max(a, b Seconds) Seconds {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of two durations.
func Min(a, b Seconds) Seconds {
	if a < b {
		return a
	}
	return b
}
