package sim

import "fmt"

// Resource models a single-server queue with deterministic service times:
// a memory channel, a core's issue port, a migration engine, a fabric link.
// An operation arriving at time now with service time svc begins when the
// server is free and completes svc later; the server is then busy until that
// completion. Latency that does not occupy the server (wire time, bank
// access time) should be added by the caller on top of the returned
// completion time.
//
// This "next-free-time" formulation is the standard building block for
// bandwidth/queueing models: it yields exact FIFO single-server behaviour at
// a tiny fraction of the cost of token-level simulation.
type Resource struct {
	name   string
	freeAt Time
	scale  float64 // service-time multiplier; 0 or 1 means unthrottled

	busy    Time   // total service time granted
	ops     uint64 // operations served
	waited  Time   // total queueing delay experienced by operations
	maxWait Time   // largest single queueing delay
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name reports the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// SetServiceScale installs a service-time multiplier on the server — the
// throttle hook the fault-injection layer uses to model degraded hardware
// (a slowed core clock, a throttled NCDRAM channel). Every subsequent
// Acquire's service time is multiplied by f and rounded to the nearest
// picosecond; f == 1 (and the initial 0) restores the exact unthrottled
// arithmetic, so an unthrottled resource is byte-identical to one that never
// had the hook touched. f must be >= 1: faults degrade, they never
// accelerate.
func (r *Resource) SetServiceScale(f float64) {
	if f < 1 {
		panic(fmt.Sprintf("sim: resource %q service scale %v < 1", r.name, f))
	}
	r.scale = f
}

// ServiceScale reports the installed multiplier (1 when unthrottled).
func (r *Resource) ServiceScale() float64 {
	if r.scale == 0 {
		return 1
	}
	return r.scale
}

// Acquire books one operation of the given service time arriving now.
// It returns the operation's start and completion times and advances the
// server's free time. svc must be non-negative.
func (r *Resource) Acquire(now Time, svc Time) (start, done Time) {
	if svc < 0 {
		r.negativeService()
	}
	if r.scale != 0 && r.scale != 1 {
		svc = Time(float64(svc)*r.scale + 0.5)
	}
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	wait := start - now
	done = start + svc
	r.freeAt = done
	r.busy += svc
	r.ops++
	r.waited += wait
	if wait > r.maxWait {
		r.maxWait = wait
	}
	return start, done
}

// AcquireRun books count back-to-back operations of identical service time
// arriving together at now — one bulk grant replacing count sequential
// Acquire calls. Because each operation in such a run starts exactly when
// its predecessor completes, the aggregate statistics have a closed form:
// every derived quantity (freeAt, busy, ops, waited, maxWait) is identical
// to the sequential loop's, which TestAcquireRunMatchesSequential verifies
// over randomized schedules. It returns the first operation's start time and
// the last operation's completion time.
func (r *Resource) AcquireRun(now Time, svc Time, count int) (start, done Time) {
	if svc < 0 {
		r.negativeService()
	}
	if count <= 0 {
		panic(fmt.Sprintf("sim: resource %q non-positive run count %d", r.name, count))
	}
	if r.scale != 0 && r.scale != 1 {
		svc = Time(float64(svc)*r.scale + 0.5)
	}
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	k := Time(count)
	wait1 := start - now
	done = start + k*svc
	r.freeAt = done
	r.busy += k * svc
	r.ops += uint64(count)
	// Op i (0-based) waits wait1 + i*svc; the arithmetic series sums in
	// closed form, and the last op waits the longest.
	r.waited += k*wait1 + svc*(k*(k-1)/2)
	if last := wait1 + (k-1)*svc; last > r.maxWait {
		r.maxWait = last
	}
	return start, done
}

// negativeService reports a negative-service-time booking. Factored out of
// the acquire paths so their steady-state bodies stay within the inlining
// budget.
func (r *Resource) negativeService() {
	panic(fmt.Sprintf("sim: resource %q negative service time", r.name))
}

// FreeAt reports when the server next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Ops reports how many operations have been served.
func (r *Resource) Ops() uint64 { return r.ops }

// BusyTime reports the total service time granted so far.
func (r *Resource) BusyTime() Time { return r.busy }

// TotalWait reports the cumulative queueing delay across all operations.
func (r *Resource) TotalWait() Time { return r.waited }

// MaxWait reports the largest queueing delay any single operation saw.
func (r *Resource) MaxWait() Time { return r.maxWait }

// Utilization reports busy time as a fraction of the given elapsed window.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset returns the resource to idle and clears its statistics.
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busy = 0
	r.ops = 0
	r.waited = 0
	r.maxWait = 0
}
