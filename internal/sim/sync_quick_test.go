package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// The property suite drives a Semaphore with a random program of mixed
// Acquire / TryAcquire / Release operations and checks it against a plain
// model (an integer slot count plus a FIFO queue of waiter ids):
//
//   - slots are granted to blocked waiters in strict FIFO (arrival) order,
//   - Waiting() and InUse() match the model after every operation,
//   - no waiter is lost (every enqueued waiter is eventually granted once
//     the program's trailing releases drain the queue) and none is granted
//     twice,
//
// including across the head-cursor compaction path (head > 32) that long
// queues trigger.

// semProgram interprets ops against a semaphore of the given capacity
// inside one simulated run and returns an error describing the first
// violated invariant.
func semProgram(capacity int, ops []byte) error {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", capacity)

	// Model state, updated by the driver and the waiters as they run.
	var (
		modelInUse   int
		fifo         []int // ids of waiters currently blocked, arrival order
		granted      []int // ids in the order their Acquire returned
		enqueued     []int // ids in the order their Acquire blocked
		next         int   // next waiter id
		holders      int   // granted-but-unreleased slots owned by the driver
		invariantErr error
	)
	check := func(format string, args ...any) {
		if invariantErr == nil {
			invariantErr = fmt.Errorf(format, args...)
		}
	}
	audit := func(when string) {
		if got, want := sem.Waiting(), len(fifo); got != want {
			check("%s: Waiting() = %d, model %d", when, got, want)
		}
		if got, want := sem.InUse(), modelInUse; got != want {
			check("%s: InUse() = %d, model %d", when, got, want)
		}
	}

	// The driver's script: each op, then an audit once the op has settled.
	var driver []func(*Proc) bool
	for _, op := range ops {
		driver = append(driver, func(p *Proc) bool {
			switch op % 4 {
			case 0, 1: // spawn a waiter that acquires, holds briefly, releases
				id := next
				next++
				wouldBlock := modelInUse >= capacity
				if wouldBlock {
					fifo = append(fifo, id)
					enqueued = append(enqueued, id)
				} else {
					modelInUse++
				}
				e.Go("waiter", sem.AcquireCont, do(func(*Proc) { granted = append(granted, id) }), delay(3),
					do(func(*Proc) {
						// The model: this release either transfers the slot
						// to the FIFO head or frees it.
						if len(fifo) > 0 {
							fifo = fifo[1:]
						} else {
							modelInUse--
						}
						sem.Release()
					}))
				// Let the waiter run up to its park or grant so the audit
				// below sees a settled state.
				return p.SleepUntil(p.Now() + 1)
			case 2: // TryAcquire from the driver
				got := sem.TryAcquire()
				want := modelInUse < capacity
				if got != want {
					check("TryAcquire = %v with inUse=%d cap=%d", got, modelInUse, capacity)
				}
				if got {
					modelInUse++
					holders++
				}
			case 3: // release a driver-held slot, if any
				if holders > 0 {
					holders--
					if len(fifo) > 0 {
						fifo = fifo[1:]
						// Slot transferred to a waiter; it will release in
						// its own time.
					} else {
						modelInUse--
					}
					sem.Release()
					return p.SleepUntil(p.Now() + 1)
				}
			}
			return false
		}, do(func(*Proc) { audit("after op") }))
	}
	// Drain: release every slot the driver still holds so no waiter is
	// pinned forever; waiter-held slots release themselves. The driver
	// holds at most one slot per op.
	for range ops {
		driver = append(driver, func(p *Proc) bool {
			if holders == 0 {
				return false
			}
			holders--
			if len(fifo) > 0 {
				fifo = fifo[1:]
			} else {
				modelInUse--
			}
			sem.Release()
			return p.SleepUntil(p.Now() + 1)
		})
	}
	e.Go("driver", driver...)
	if err := e.Run(); err != nil {
		return fmt.Errorf("run failed: %w", err)
	}
	if invariantErr != nil {
		return invariantErr
	}

	// Every waiter that blocked was granted exactly once, in arrival order.
	grantedOf := make(map[int]int, len(granted))
	for _, id := range granted {
		grantedOf[id]++
	}
	for id := 0; id < next; id++ {
		if grantedOf[id] != 1 {
			return fmt.Errorf("waiter %d granted %d times", id, grantedOf[id])
		}
	}
	// The grant order restricted to waiters that blocked must equal their
	// enqueue order (non-blocking acquires are granted inline and may
	// interleave arbitrarily with them).
	blocked := make(map[int]bool, len(enqueued))
	for _, id := range enqueued {
		blocked[id] = true
	}
	var grantedBlocked []int
	for _, id := range granted {
		if blocked[id] {
			grantedBlocked = append(grantedBlocked, id)
		}
	}
	if len(grantedBlocked) != len(enqueued) {
		return fmt.Errorf("granted %d blocked waiters, enqueued %d", len(grantedBlocked), len(enqueued))
	}
	for i := range enqueued {
		if grantedBlocked[i] != enqueued[i] {
			return fmt.Errorf("FIFO violated at %d: granted %v, enqueued %v", i, grantedBlocked, enqueued)
		}
	}
	if sem.InUse() != 0 {
		return fmt.Errorf("slots leaked: InUse() = %d at end", sem.InUse())
	}
	if sem.Waiting() != 0 {
		return fmt.Errorf("waiters pinned: Waiting() = %d at end", sem.Waiting())
	}
	return nil
}

func TestSemaphoreQuickProperties(t *testing.T) {
	f := func(capRaw uint8, ops []byte) bool {
		capacity := int(capRaw%4) + 1
		if err := semProgram(capacity, ops); err != nil {
			t.Logf("capacity=%d ops=%v: %v", capacity, ops, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSemaphoreQuickLongQueues biases the generator toward long waiter
// queues (capacity 1, acquire-heavy programs) so the randomized suite
// reaches the head-cursor compaction branch too.
func TestSemaphoreQuickLongQueues(t *testing.T) {
	f := func(seed uint8) bool {
		ops := make([]byte, 120)
		for i := range ops {
			// Mostly acquires with a sprinkle of TryAcquire/Release drawn
			// from the seed; the trailing drain unblocks everyone.
			if (int(seed)+i)%11 == 0 {
				ops[i] = 2 + byte(i%2)
			}
		}
		if err := semProgram(1, ops); err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSemaphoreCompactionCrossing pins the head > 32 compaction branch
// deterministically: a capacity-1 semaphore accumulates 80 waiters, the
// queue drains past the compaction threshold, 40 more arrive (appending to
// a compacted slice), and every waiter must still be granted exactly once
// in arrival order.
func TestSemaphoreCompactionCrossing(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(e, "slots", 1)
	var order []int
	spawn := func(id int, at, hold Time) {
		e.GoAt(at, "w", sem.AcquireCont, do(func(*Proc) { order = append(order, id) }),
			delay(hold), do(func(*Proc) { sem.Release() }))
	}
	// Waiter 0 takes the slot at t=0 and holds it until t=200, so waiters
	// 1..79 all queue up (len = 79, head = 0) before any grant happens.
	spawn(0, 0, 200)
	for i := 1; i < 80; i++ {
		spawn(i, Time(i), 1)
	}
	// The release cascade from t=200 grants one waiter per tick; the head
	// cursor crosses the compaction threshold (head > 32 with head*2 >=
	// len) around t=240 with the queue still half full. The second wave
	// lands right after that, appending to the compacted slice while the
	// drain continues.
	for i := 80; i < 120; i++ {
		spawn(i, Time(160+i), 1)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 120 {
		t.Fatalf("granted %d waiters, want 120", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("grant order[%d] = %d; FIFO violated: %v", i, id, order)
		}
	}
	if sem.Waiting() != 0 || sem.InUse() != 0 {
		t.Fatalf("end state: waiting=%d inUse=%d", sem.Waiting(), sem.InUse())
	}
}
