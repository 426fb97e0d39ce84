package sim

import "fmt"

// Semaphore is a counting semaphore for Procs with FIFO wakeup order.
// The Emu model uses it for hardware thread-context slots: a Gossamer core
// has a fixed number of resident threadlet contexts, and a spawn or an
// inbound migration must wait for a free slot.
//
// The waiter queue is a slice with a head cursor rather than a shifted
// slice: dequeue is O(1) instead of an O(n) copy, which matters when
// oversubscribed kernels park hundreds of threadlets on one nodelet's
// context slots. Consumed head space is compacted away once it dominates
// the slice, so the queue's footprint stays proportional to the waiter
// count.
type Semaphore struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []*Proc
	head     int // index of the next waiter to wake; entries before it are spent
	maxInUse int
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(eng *Engine, name string, capacity int) *Semaphore {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: semaphore %q needs positive capacity", name))
	}
	return &Semaphore{eng: eng, name: name, capacity: capacity}
}

// AcquireCont takes one slot for p: parked=false means the slot was taken
// in place and the body continues; parked=true means p joined the FIFO
// waiter queue (recorded as its park site) and StepProc must return — the
// releaser transfers its slot and schedules p's next dispatch, with the
// count already adjusted.
func (s *Semaphore) AcquireCont(p *Proc) (parked bool) {
	if s.inUse < s.capacity {
		s.take()
		return false
	}
	s.waiters = append(s.waiters, p)
	p.Suspend(s.name)
	return true
}

// TryAcquire takes a slot if one is free without blocking; it reports
// whether it succeeded.
func (s *Semaphore) TryAcquire() bool {
	if s.inUse < s.capacity {
		s.take()
		return true
	}
	return false
}

func (s *Semaphore) take() {
	s.inUse++
	if s.inUse > s.maxInUse {
		s.maxInUse = s.inUse
	}
}

// Release returns one slot. If a Proc is waiting, the slot transfers
// directly to the head of the queue.
func (s *Semaphore) Release() {
	if s.inUse <= 0 {
		panic(fmt.Sprintf("sim: semaphore %q released below zero", s.name))
	}
	if s.head < len(s.waiters) {
		w := s.waiters[s.head]
		s.waiters[s.head] = nil // don't pin the parked Proc via dead queue slots
		s.head++
		if s.head == len(s.waiters) {
			s.waiters = s.waiters[:0]
			s.head = 0
		} else if s.head > 32 && s.head*2 >= len(s.waiters) {
			n := copy(s.waiters, s.waiters[s.head:])
			for i := n; i < len(s.waiters); i++ {
				s.waiters[i] = nil
			}
			s.waiters = s.waiters[:n]
			s.head = 0
		}
		// Slot transfers: inUse stays the same.
		w.Unpark()
		return
	}
	s.inUse--
}

// InUse reports the number of slots currently held.
func (s *Semaphore) InUse() int { return s.inUse }

// Capacity reports the semaphore's capacity.
func (s *Semaphore) Capacity() int { return s.capacity }

// MaxInUse reports the high-water mark of held slots.
func (s *Semaphore) MaxInUse() int { return s.maxInUse }

// Waiting reports how many Procs are queued for a slot.
func (s *Semaphore) Waiting() int { return len(s.waiters) - s.head }

// Join is a completion counter, the simulation analogue of sync.WaitGroup.
// A parent uses it to implement cilk_sync: children call Done, the parent
// calls WaitCont.
type Join struct {
	remaining int
	waiter    *Proc
}

// NewJoin returns a Join expecting n completions.
func NewJoin(n int) *Join {
	if n < 0 {
		panic("sim: negative join count")
	}
	return &Join{remaining: n}
}

// Add registers n more expected completions.
func (j *Join) Add(n int) {
	if n < 0 {
		panic("sim: negative join add")
	}
	j.remaining += n
}

// Done records one completion, waking the waiter if the count reaches zero.
func (j *Join) Done() {
	if j.remaining <= 0 {
		panic("sim: join Done below zero")
	}
	j.remaining--
	if j.remaining == 0 && j.waiter != nil {
		w := j.waiter
		j.waiter = nil
		w.Unpark()
	}
}

// Pending reports the number of completions still outstanding.
func (j *Join) Pending() int { return j.remaining }

// WaitCont registers p as the join's waiter: parked=false means the count
// was already zero and the body continues; parked=true means p is
// registered as the waiter and StepProc must return — the final Done
// schedules its next dispatch. At most one Proc may wait.
func (j *Join) WaitCont(p *Proc) (parked bool) {
	if j.remaining == 0 {
		return false
	}
	if j.waiter != nil {
		panic("sim: join already has a waiter")
	}
	j.waiter = p
	p.Suspend("join")
	return true
}
