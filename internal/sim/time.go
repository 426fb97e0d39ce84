// Package sim provides a small, deterministic discrete-event simulation
// engine used by every machine model in this repository.
//
// Time is measured in integer picoseconds, which is fine enough to mix the
// clock domains that appear in the Emu Chick characterization (150 MHz and
// 300 MHz Gossamer cores, DDR4-1600 and DDR4-2133 memory channels, 2.6 GHz
// Xeon cores) without accumulating rounding drift, while still allowing
// several hours of simulated time in an int64.
//
// The engine is strictly sequential: exactly one simulated process runs at a
// time, and events with equal timestamps fire in the order they were
// scheduled. Two runs with the same inputs produce byte-identical results.
package sim

import "fmt"

// Time is a point in (or duration of) simulated time, in picoseconds.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time with an adaptive unit, e.g. "1.500us".
func (t Time) String() string {
	// The magnitude is formatted as a uint64, which holds |MinInt64|.
	if t < 0 {
		return "-" + formatMagnitude(-uint64(t))
	}
	return formatMagnitude(uint64(t))
}

func formatMagnitude(ps uint64) string {
	switch {
	case ps < uint64(Nanosecond):
		return fmt.Sprintf("%dps", ps)
	case ps < uint64(Microsecond):
		return fmt.Sprintf("%.3fns", float64(ps)/float64(Nanosecond))
	case ps < uint64(Millisecond):
		return fmt.Sprintf("%.3fus", float64(ps)/float64(Microsecond))
	case ps < uint64(Second):
		return fmt.Sprintf("%.3fms", float64(ps)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(ps)/float64(Second))
	}
}

// Seconds converts a duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds into a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Interval returns the duration of one operation at the given per-second
// rate. Interval(9e6) is the service time of a migration engine that
// sustains nine million migrations per second.
func Interval(perSecond float64) Time {
	if perSecond <= 0 {
		panic("sim: Interval requires a positive rate")
	}
	return Time(float64(Second)/perSecond + 0.5)
}

// TransferTime returns how long a transfer of the given number of bytes
// occupies a link with the given bandwidth in bytes per second.
func TransferTime(bytes int64, bytesPerSecond float64) Time {
	if bytesPerSecond <= 0 {
		panic("sim: TransferTime requires positive bandwidth")
	}
	if bytes < 0 {
		panic("sim: TransferTime requires non-negative size")
	}
	return Time(float64(bytes)/bytesPerSecond*float64(Second) + 0.5)
}

// Clock converts between cycle counts of a fixed-frequency clock and Time.
type Clock struct {
	hz         int64
	psPerCycle Time
}

// NewClock returns a Clock for the given frequency in hertz. The period is
// rounded to the nearest picosecond (for 150 MHz the error is below 0.005%).
func NewClock(hz int64) Clock {
	if hz <= 0 {
		panic("sim: NewClock requires a positive frequency")
	}
	ps := (int64(Second) + hz/2) / hz
	if ps < 1 {
		ps = 1
	}
	return Clock{hz: hz, psPerCycle: Time(ps)}
}

// Hz reports the clock frequency the Clock was built with.
func (c Clock) Hz() int64 { return c.hz }

// Period reports the duration of one cycle.
func (c Clock) Period() Time { return c.psPerCycle }

// Cycles returns the duration of n cycles.
func (c Clock) Cycles(n int64) Time {
	if n < 0 {
		panic("sim: negative cycle count")
	}
	return Time(n) * c.psPerCycle
}
