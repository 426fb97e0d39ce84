package sim

import "testing"

func TestSemaphoreBlocksAtCapacity(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 2)
	var acquiredAt [3]Time
	for i := 0; i < 3; i++ {
		e.Go("w", sem.AcquireCont, do(func(p *Proc) { acquiredAt[i] = p.Now() }),
			delay(100), do(func(*Proc) { sem.Release() }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if acquiredAt[0] != 0 || acquiredAt[1] != 0 {
		t.Fatalf("first two should acquire at 0: %v", acquiredAt)
	}
	if acquiredAt[2] != 100 {
		t.Fatalf("third should acquire at 100, got %v", acquiredAt[2])
	}
	if sem.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", sem.InUse())
	}
	if sem.MaxInUse() != 2 {
		t.Fatalf("MaxInUse = %d", sem.MaxInUse())
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	var order []int
	e.Go("holder", sem.AcquireCont, delay(10), do(func(*Proc) { sem.Release() }))
	for i := 0; i < 5; i++ {
		e.GoAt(Time(i+1), "w", sem.AcquireCont, do(func(*Proc) {
			order = append(order, i)
			sem.Release()
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("wakeup order = %v", order)
		}
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire on empty failed")
	}
	if sem.TryAcquire() {
		t.Fatal("TryAcquire at capacity succeeded")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestSemaphoreReleaseBelowZeroPanics(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("release below zero did not panic")
		}
	}()
	sem.Release()
}

func TestJoinWaitsForAll(t *testing.T) {
	e := NewEngine()
	j := NewJoin(0)
	var doneAt Time
	e.Go("parent", do(func(*Proc) {
		for i := 1; i <= 3; i++ {
			j.Add(1)
			e.Go("child", delay(Time(i*10)), do(func(*Proc) { j.Done() }))
		}
	}), j.WaitCont, do(func(p *Proc) { doneAt = p.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 30 {
		t.Fatalf("sync completed at %v, want 30", doneAt)
	}
}

func TestJoinAlreadyZero(t *testing.T) {
	e := NewEngine()
	var ran bool
	e.Go("p", func(p *Proc) bool {
		if NewJoin(0).WaitCont(p) { // must not block
			return true
		}
		ran = true
		return false
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Wait on zero join blocked")
	}
}

func TestJoinDoneBeforeWait(t *testing.T) {
	e := NewEngine()
	j := NewJoin(1)
	var doneAt Time
	e.Go("child", delay(5), do(func(*Proc) { j.Done() }))
	// The child finishes before the parent waits.
	e.Go("parent", delay(50), j.WaitCont, do(func(p *Proc) { doneAt = p.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 50 {
		t.Fatalf("doneAt = %v, want 50", doneAt)
	}
}

func TestSemaphoreAccessors(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "s", 3)
	if sem.Capacity() != 3 || sem.Waiting() != 0 {
		t.Fatal("fresh semaphore accessors wrong")
	}
	e.Go("holder", sem.AcquireCont, delay(100), do(func(*Proc) { sem.Release() }))
	waiting := -1
	// The holder has 1 of 3 slots; taking two fills the semaphore, so the
	// probe's third acquire blocks until the holder releases at t=100.
	e.GoAt(10, "probe", sem.AcquireCont, sem.AcquireCont, sem.AcquireCont, do(func(*Proc) {
		waiting = 0
		sem.Release()
		sem.Release()
		sem.Release()
	}))
	e.GoAt(20, "observer", do(func(*Proc) {
		if sem.Waiting() != 1 {
			t.Errorf("Waiting = %d at t=20", sem.Waiting())
		}
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waiting != 0 {
		t.Fatal("probe never proceeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-capacity semaphore did not panic")
			}
		}()
		NewSemaphore(e, "bad", 0)
	}()
}

func TestJoinAccessors(t *testing.T) {
	j := NewJoin(2)
	if j.Pending() != 2 {
		t.Fatalf("Pending = %d", j.Pending())
	}
	j.Done()
	if j.Pending() != 1 {
		t.Fatalf("Pending = %d", j.Pending())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Add did not panic")
			}
		}()
		j.Add(-1)
	}()
}

func TestResourceName(t *testing.T) {
	if NewResource("ch").Name() != "ch" {
		t.Fatal("resource name lost")
	}
}

func TestJoinPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewJoin(-1) did not panic")
			}
		}()
		NewJoin(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Done below zero did not panic")
			}
		}()
		NewJoin(0).Done()
	}()
}

// TestSemaphoreAllocsFlat: 64 contenders on one slot park and wake through
// AcquireCont, Release, Suspend and Unpark without allocating per round,
// Release's waiter compaction included.
func TestSemaphoreAllocsFlat(t *testing.T) {
	cs, e := make([]contender, 64), NewEngineSized(64)
	allocsFlat(t, "Semaphore contention", 64, func(rounds int) {
		if err := runContenders(e, cs, rounds); err != nil {
			t.Fatal(err)
		}
	})
}
