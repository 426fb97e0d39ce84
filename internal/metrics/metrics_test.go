package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"emuchick/internal/sim"
)

func TestResultBandwidth(t *testing.T) {
	r := Result{Bytes: 1e6, Elapsed: sim.Millisecond}
	if got := r.BytesPerSec(); got != 1e9 {
		t.Fatalf("BytesPerSec = %v", got)
	}
	if got := r.MBps(); got != 1000 {
		t.Fatalf("MBps = %v", got)
	}
	if got := r.GBps(); got != 1 {
		t.Fatalf("GBps = %v", got)
	}
	if (Result{Bytes: 100, Elapsed: 0}).BytesPerSec() != 0 {
		t.Fatal("zero elapsed should yield zero bandwidth")
	}
}

func TestAggregate(t *testing.T) {
	s := Aggregate([]float64{2, 4, 6})
	if s.N != 3 || s.Mean != 4 || s.Min != 2 || s.Max != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if z := Aggregate(nil); z.N != 0 || z.Mean != 0 {
		t.Fatal("empty aggregate not zero")
	}
	one := Aggregate([]float64{5})
	if one.StdDev != 0 || one.Mean != 5 {
		t.Fatalf("single sample stats = %+v", one)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "emu"}
	s.Add(1, Aggregate([]float64{10}))
	s.Add(2, Aggregate([]float64{30}))
	s.Add(4, Aggregate([]float64{20}))
	if s.MaxMean() != 30 {
		t.Fatalf("MaxMean = %v", s.MaxMean())
	}
	st, err := s.At(2)
	if err != nil || st.Mean != 30 {
		t.Fatalf("At(2) = %+v, %v", st, err)
	}
	if _, err := s.At(99); err == nil {
		t.Fatal("missing point not reported")
	}
	if (&Series{}).MaxMean() != 0 {
		t.Fatal("empty MaxMean != 0")
	}
}

// Regression: At used exact float equality, so an x that arrived through
// arithmetic (0.1+0.2, unit conversions) missed the nominally present point.
func TestSeriesAtTolerance(t *testing.T) {
	s := &Series{Name: "emu"}
	s.Add(0.3, Aggregate([]float64{10}))
	s.Add(1e9, Aggregate([]float64{20}))
	if st, err := s.At(0.1 + 0.2); err != nil || st.Mean != 10 {
		t.Fatalf("At(0.1+0.2) = %+v, %v — computed x missed the 0.3 point", st, err)
	}
	// Relative tolerance: 1e9 reached via arithmetic that loses a few ULPs.
	if st, err := s.At(1e9 * (1 + 1e-12)); err != nil || st.Mean != 20 {
		t.Fatalf("At(1e9+eps) = %+v, %v", st, err)
	}
	// Distinct sweep points stay distinct.
	if _, err := s.At(0.31); err == nil {
		t.Fatal("At(0.31) matched the 0.3 point — tolerance too loose")
	}
}

func TestFigureFindSeries(t *testing.T) {
	f := &Figure{ID: "fig5", Series: []*Series{{Name: "a"}, {Name: "b"}}}
	if f.FindSeries("b") == nil {
		t.Fatal("existing series not found")
	}
	if f.FindSeries("c") != nil {
		t.Fatal("phantom series found")
	}
}

// Property: Min <= Mean <= Max, StdDev >= 0, and aggregation is invariant
// under permutation.
func TestAggregateInvariantsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		s := Aggregate(vals)
		if s.Min > s.Mean+1e-9 || s.Mean > s.Max+1e-9 || s.StdDev < 0 {
			return false
		}
		// Reverse and re-aggregate.
		rev := make([]float64, len(vals))
		for i := range vals {
			rev[i] = vals[len(vals)-1-i]
		}
		r := Aggregate(rev)
		return math.Abs(r.Mean-s.Mean) < 1e-9 && r.Min == s.Min && r.Max == s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
