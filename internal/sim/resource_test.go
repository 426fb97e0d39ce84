package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceIdleStartsImmediately(t *testing.T) {
	r := NewResource("chan")
	start, done := r.Acquire(100, 10)
	if start != 100 || done != 110 {
		t.Fatalf("start=%v done=%v", start, done)
	}
	if r.FreeAt() != 110 {
		t.Fatalf("FreeAt = %v", r.FreeAt())
	}
}

func TestResourceServiceScale(t *testing.T) {
	r := NewResource("chan")
	if r.ServiceScale() != 1 {
		t.Fatalf("initial scale = %v", r.ServiceScale())
	}
	r.SetServiceScale(2.5)
	start, done := r.Acquire(0, 10)
	if start != 0 || done != 25 {
		t.Fatalf("throttled op start=%v done=%v, want 0, 25", start, done)
	}
	// Restoring scale 1 restores the exact unthrottled arithmetic.
	r.SetServiceScale(1)
	start, done = r.Acquire(25, 10)
	if start != 25 || done != 35 {
		t.Fatalf("unthrottled op start=%v done=%v, want 25, 35", start, done)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scale < 1 did not panic")
		}
	}()
	r.SetServiceScale(0.5)
}

func TestResourceQueues(t *testing.T) {
	r := NewResource("chan")
	r.Acquire(0, 10)
	start, done := r.Acquire(0, 10) // arrives while busy
	if start != 10 || done != 20 {
		t.Fatalf("queued op start=%v done=%v", start, done)
	}
	if r.TotalWait() != 10 || r.MaxWait() != 10 {
		t.Fatalf("wait accounting: total=%v max=%v", r.TotalWait(), r.MaxWait())
	}
}

func TestResourceIdleGap(t *testing.T) {
	r := NewResource("chan")
	r.Acquire(0, 10)
	start, _ := r.Acquire(50, 10) // arrives after idle gap
	if start != 50 {
		t.Fatalf("start = %v, want 50", start)
	}
	if r.BusyTime() != 20 {
		t.Fatalf("busy = %v, want 20", r.BusyTime())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("chan")
	r.Acquire(0, 25)
	r.Acquire(0, 25)
	if u := r.Utilization(100); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := r.Utilization(10); u != 1 {
		t.Fatalf("utilization clamps to 1, got %v", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("utilization of empty window = %v", u)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("chan")
	r.Acquire(0, 10)
	r.Reset()
	if r.Ops() != 0 || r.BusyTime() != 0 || r.FreeAt() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestResourceNegativeServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative service time did not panic")
		}
	}()
	NewResource("chan").Acquire(0, -1)
}

// Property: AcquireRun(now, svc, k) leaves the resource in exactly the state
// k sequential Acquire(now, svc) calls would — same return values, same
// freeAt/busy/ops/waited/maxWait — for any prior schedule, arrival time,
// service time, run length, and service scale. This is the exact-equivalence
// contract the bulk-transfer call sites rely on.
func TestAcquireRunMatchesSequential(t *testing.T) {
	f := func(priorSteps, priorSvcs []uint8, gap, svc uint8, count uint8, scaleQ uint8) bool {
		runLen := int(count%16) + 1
		bulk := NewResource("bulk")
		seq := NewResource("seq")
		if scaleQ%4 != 0 {
			scale := 1 + float64(scaleQ)/64
			bulk.SetServiceScale(scale)
			seq.SetServiceScale(scale)
		}
		// Replay an arbitrary prior schedule on both resources.
		now := Time(0)
		n := len(priorSteps)
		if len(priorSvcs) < n {
			n = len(priorSvcs)
		}
		for i := 0; i < n; i++ {
			now += Time(priorSteps[i])
			bulk.Acquire(now, Time(priorSvcs[i]))
			seq.Acquire(now, Time(priorSvcs[i]))
		}
		now += Time(gap)
		bStart, bDone := bulk.AcquireRun(now, Time(svc), runLen)
		var sStart, sDone Time
		for i := 0; i < runLen; i++ {
			start, done := seq.Acquire(now, Time(svc))
			if i == 0 {
				sStart = start
			}
			sDone = done
		}
		return bStart == sStart && bDone == sDone &&
			bulk.FreeAt() == seq.FreeAt() &&
			bulk.BusyTime() == seq.BusyTime() &&
			bulk.Ops() == seq.Ops() &&
			bulk.TotalWait() == seq.TotalWait() &&
			bulk.MaxWait() == seq.MaxWait()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireRunSingleOpEqualsAcquire(t *testing.T) {
	a := NewResource("a")
	b := NewResource("b")
	aStart, aDone := a.AcquireRun(7, 5, 1)
	bStart, bDone := b.Acquire(7, 5)
	if aStart != bStart || aDone != bDone || a.TotalWait() != b.TotalWait() {
		t.Fatalf("run of 1: (%v,%v) vs Acquire (%v,%v)", aStart, aDone, bStart, bDone)
	}
}

func TestAcquireRunNonPositiveCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("count 0 did not panic")
		}
	}()
	NewResource("chan").AcquireRun(0, 1, 0)
}

// Property: for any arrival/service sequence, completions are monotone
// non-decreasing, no operation starts before it arrives, and total busy time
// equals the sum of service times.
func TestResourceInvariantsProperty(t *testing.T) {
	f := func(arrivalSteps, services []uint8) bool {
		r := NewResource("q")
		now := Time(0)
		var lastDone Time
		var sumSvc Time
		n := len(arrivalSteps)
		if len(services) < n {
			n = len(services)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivalSteps[i])
			svc := Time(services[i])
			start, done := r.Acquire(now, svc)
			if start < now || done != start+svc || done < lastDone {
				return false
			}
			lastDone = done
			sumSvc += svc
		}
		return r.BusyTime() == sumSvc && r.Ops() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResourceAllocsFlat: booking single and bulk operations allocates
// nothing per booking.
func TestResourceAllocsFlat(t *testing.T) {
	allocsFlat(t, "Resource.Acquire and AcquireRun", 64, func(ops int) {
		r := NewResource("chan")
		r.SetServiceScale(1.5)
		for i := range ops {
			r.Acquire(Time(i), 10)
			r.AcquireRun(Time(i), 10, 4)
		}
	})
}
