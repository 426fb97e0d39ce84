package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{999, "999ps"},
		{Nanosecond, "1.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000000s"},
		{-Nanosecond, "-1.000ns"},
		{math.MaxInt64, "9223372.036855s"},
		{math.MinInt64, "-9223372.036855s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestInterval(t *testing.T) {
	if got := Interval(1e6); got != Microsecond {
		t.Fatalf("Interval(1e6) = %v, want 1us", got)
	}
	if got := Interval(9e6); got != Time(111111) {
		t.Fatalf("Interval(9e6) = %d ps, want 111111", int64(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Interval(0) did not panic")
		}
	}()
	Interval(0)
}

func TestTransferTime(t *testing.T) {
	// 64 bytes over 12.8 GB/s = 5 ns.
	if got := TransferTime(64, 12.8e9); got != 5*Nanosecond {
		t.Fatalf("TransferTime(64, 12.8e9) = %v, want 5ns", got)
	}
	if got := TransferTime(0, 1e9); got != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", got)
	}
}

func TestTransferTimePanics(t *testing.T) {
	for _, f := range []func(){
		func() { TransferTime(-1, 1e9) },
		func() { TransferTime(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestClock(t *testing.T) {
	c := NewClock(150e6)
	if c.Hz() != 150e6 {
		t.Fatalf("Hz = %d", c.Hz())
	}
	if c.Period() != 6667*Picosecond {
		t.Fatalf("150MHz period = %dps, want 6667", int64(c.Period()))
	}
	if got := c.Cycles(3); got != 3*6667 {
		t.Fatalf("Cycles(3) = %d", int64(got))
	}
	c2 := NewClock(1e12 * 10) // 10 THz clamps to 1 ps/cycle
	if c2.Period() != 1 {
		t.Fatalf("clamped period = %d", int64(c2.Period()))
	}
}

func TestClockPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewClock(0) did not panic")
			}
		}()
		NewClock(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Cycles(-1) did not panic")
			}
		}()
		NewClock(1e9).Cycles(-1)
	}()
}

// Property: Cycles is additive — Cycles(a)+Cycles(b) == Cycles(a+b).
func TestClockCyclesAdditiveProperty(t *testing.T) {
	c := NewClock(300e6)
	f := func(a, b uint16) bool {
		return c.Cycles(int64(a))+c.Cycles(int64(b)) == c.Cycles(int64(a)+int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock period error versus the exact rational period is at
// most half a picosecond per cycle.
func TestClockPeriodRoundingProperty(t *testing.T) {
	f := func(mhz uint16) bool {
		hz := int64(mhz%2000+1) * 1e6
		c := NewClock(hz)
		exact := float64(Second) / float64(hz)
		diff := float64(c.Period()) - exact
		if diff < 0 {
			diff = -diff
		}
		return diff <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
