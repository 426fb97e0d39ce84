// Package metrics holds the measurement vocabulary of the reproduction:
// bandwidth results, multi-trial statistics (the paper reports "the average
// memory bandwidth ... over ten trials"), and labelled series suitable for
// regenerating each figure's curves.
package metrics

import (
	"fmt"
	"math"

	"emuchick/internal/sim"
)

// Result is one timed benchmark run: how many useful bytes moved in how
// much simulated time.
type Result struct {
	Bytes   int64
	Elapsed sim.Time
}

// BytesPerSec reports the measured bandwidth.
func (r Result) BytesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds()
}

// MBps reports bandwidth in decimal megabytes per second, the unit most of
// the paper's plots use.
func (r Result) MBps() float64 { return r.BytesPerSec() / 1e6 }

// GBps reports bandwidth in decimal gigabytes per second.
func (r Result) GBps() float64 { return r.BytesPerSec() / 1e9 }

// Stats summarizes a set of trial measurements. Failed counts trials that
// produced no value (a NaN hole left by a watchdog-killed or deadlocked
// simulation); N counts only the trials that did.
type Stats struct {
	N                      int
	Mean, Min, Max, StdDev float64
	Failed                 int
}

// Aggregate reduces trial values to summary statistics. An empty input
// yields a zero Stats. NaN entries are failed trials: they are counted in
// Failed and excluded from the moments, and a point whose every trial
// failed carries NaN moments (rendered as a hole, never as a zero that
// could be mistaken for a measurement).
func Aggregate(values []float64) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	var s Stats
	var sum float64
	for _, v := range values {
		if math.IsNaN(v) {
			s.Failed++
			continue
		}
		if s.N == 0 || v < s.Min {
			s.Min = v
		}
		if s.N == 0 || v > s.Max {
			s.Max = v
		}
		s.N++
		sum += v
	}
	if s.N == 0 {
		if s.Failed > 0 {
			s.Mean, s.Min, s.Max, s.StdDev = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		}
		return s
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		d := v - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Point is one x position of a figure curve.
type Point struct {
	X     float64 // the swept parameter (threads, block size, matrix size)
	Stats Stats   // trial statistics of the measured metric at X
}

// Series is one labelled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x float64, st Stats) {
	s.Points = append(s.Points, Point{X: x, Stats: st})
}

// MaxMean reports the largest mean across the series' points (used for
// "peak measured bandwidth" normalization in Fig. 8).
func (s *Series) MaxMean() float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.Stats.Mean > best {
			best = p.Stats.Mean
		}
	}
	return best
}

// At returns the stats at the given x, or an error if the series has no
// such point. Matching uses a relative tolerance rather than exact float
// equality: x positions often arrive through arithmetic (unit conversions,
// ratios of sweep parameters) whose rounding would otherwise make a
// nominally present point unfindable.
func (s *Series) At(x float64) (Stats, error) {
	for _, p := range s.Points {
		if sameX(p.X, x) {
			return p.Stats, nil
		}
	}
	return Stats{}, fmt.Errorf("metrics: series %q has no point at x=%v", s.Name, x)
}

// sameX compares x positions with a relative tolerance (absolute near zero).
func sameX(a, b float64) bool {
	const tol = 1e-9
	diff := math.Abs(a - b)
	if scale := math.Max(math.Abs(a), math.Abs(b)); scale > 1 {
		return diff <= tol*scale
	}
	return diff <= tol
}

// Figure is a regenerated paper artifact: a set of curves plus axis labels.
type Figure struct {
	ID     string // e.g. "fig5"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
	// XTicks optionally names x positions for categorical "figures"
	// (the scalar-anchor tables); nil for ordinary numeric sweeps.
	XTicks map[float64]string
	// Incomplete marks a figure assembled around failed cells: at least one
	// point lost trials to a watchdog kill or a simulation death, so holes
	// (NaN moments, Failed counts) stand in for measurements.
	Incomplete bool
}

// MarkIncomplete sets Incomplete if any point of any series recorded failed
// trials, and reports the result.
func (f *Figure) MarkIncomplete() bool {
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Stats.Failed > 0 {
				f.Incomplete = true
				return true
			}
		}
	}
	return f.Incomplete
}

// FindSeries returns the named series, or nil.
func (f *Figure) FindSeries(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}
