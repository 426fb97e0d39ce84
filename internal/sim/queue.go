package sim

import "math/bits"

// queue is the engine's pending-event set: a monotone radix queue keyed on
// event time. It relies on the engine never scheduling before now: during
// a run last, the minimum of the most recent split, never passes the clock,
// so every pending event's time is at least last.
//
// Bucket k holds the events whose time first differs from last at bit k-1
// (bucket 0: time == last). Times are non-negative int64s, so the top bit
// never differs and 64 buckets cover the whole range. Bucket indices are
// monotone in time, so the lowest non-empty bucket holds the earliest
// events, and bucket 0 holds exactly the events due at last.
//
// Each bucket is a FIFO list threaded through one node slab; popped nodes go
// to a free list and are reused by the next push, so a run allocates only
// while its pending population grows. Order: equal times always share a
// bucket (they xor last identically), pushes append at the tail, and a split
// walks its bucket head to tail into lower buckets that were empty, so every
// bucket keeps events of equal time in scheduling order. pop therefore
// yields exactly the (at, scheduling order) sequence.
type queue struct {
	last    Time   // minimum of the last split; no pending event is earlier
	mask    uint64 // bit k set iff buckets[k] is non-empty
	buckets [64]bucket
	slab    []node
	free    int32 // head of the free-node list, valid while nfree > 0
	nfree   int
}

// bucket is one FIFO of slab nodes plus the earliest time among them. head,
// tail and min are meaningful only while the bucket's mask bit is set.
type bucket struct {
	head, tail int32
	min        Time
}

// node is a slab slot: a pending event and the link to the next node in its
// bucket (or in the free list). A tail's link is never read.
type node struct {
	ev   event
	next int32
}

// len reports the number of pending events.
func (q *queue) len() int { return len(q.slab) - q.nfree }

// empty reports whether no event is pending.
func (q *queue) empty() bool { return q.mask == 0 }

// bucketOf returns the bucket an event at t belongs in relative to last.
func (q *queue) bucketOf(t Time) int { return bits.Len64(uint64(t ^ q.last)) }

// push inserts ev behind every pending event of equal or earlier time. The
// caller guarantees ev.at >= last.
func (q *queue) push(ev event) {
	var i int32
	if q.nfree > 0 {
		i = q.free
		q.free = q.slab[i].next
		q.nfree--
		q.slab[i].ev = ev
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, node{ev: ev})
	}
	q.link(q.bucketOf(ev.at), i, ev.at)
}

// link appends node i, due at t, to the tail of bucket k.
func (q *queue) link(k int, i int32, t Time) {
	b := &q.buckets[k]
	if q.mask&(1<<k) == 0 {
		q.mask |= 1 << k
		b.head, b.min = i, t
	} else {
		q.slab[b.tail].next = i
		b.min = min(b.min, t)
	}
	b.tail = i
}

// pop removes and returns the earliest pending event, ties in scheduling
// order. The queue must not be empty.
func (q *queue) pop() event {
	if q.mask&1 == 0 {
		q.split()
	}
	b := &q.buckets[0]
	i := b.head
	n := &q.slab[i]
	if i == b.tail {
		q.mask &^= 1
	} else {
		b.head = n.next
	}
	// The slot keeps its fn and proc until reuse: everything an event
	// references lives for the whole run anyway.
	n.next = q.free
	q.free = i
	q.nfree++
	return n.ev
}

// split re-anchors last at the earliest pending time and redistributes the
// lowest non-empty bucket, which holds it, into the buckets below: they are
// all empty, every moved event now differs from last below the bucket's bit,
// and walking head to tail keeps each target in scheduling order.
func (q *queue) split() {
	k := bits.TrailingZeros64(q.mask)
	b := q.buckets[k]
	q.mask &^= 1 << k
	q.last = b.min
	for i := b.head; ; {
		n := &q.slab[i]
		next := n.next
		q.link(q.bucketOf(n.ev.at), i, n.ev.at)
		if i == b.tail {
			return
		}
		i = next
	}
}

// peek reports the earliest pending time; ok is false when the queue is
// empty.
func (q *queue) peek() (t Time, ok bool) {
	if q.mask == 0 {
		return 0, false
	}
	return q.buckets[bits.TrailingZeros64(q.mask)].min, true
}

// reset drops every pending event and re-anchors the queue at now. A failed
// run needs it: a MaxTime trip pops an event past the limit, which can leave
// last ahead of the clock.
func (q *queue) reset(now Time) {
	q.slab = q.slab[:0]
	q.nfree = 0
	q.mask = 0
	q.last = now
}
