// Package trace is the observability layer of the reproduction: a pluggable
// Observer interface the machine model streams structured events into —
// thread spawn/start/end, migrations (source, destination, trigger address),
// memory operation issue/complete — plus periodic per-nodelet gauge samples
// (resident contexts, context waiters, channel and migration-engine
// backlog).
//
// The paper's entire argument rests on where threads migrate and when
// (Figs. 4-8 are all migration and bandwidth behaviour); end-of-run counters
// cannot show a migration storm or a saturated nodelet queue while it
// happens. An Observer can.
//
// Contract with the machine layer (the "zero-overhead" rules):
//
//   - When no observer is attached the emit path is a single nil check; the
//     hot path allocates nothing and performs no other work.
//   - An attached observer only *reads* model state. It never schedules
//     engine events, never touches a resource, and never advances time, so
//     simulated timing, counters, and figure metrics are bit-identical with
//     and without an observer. Gauge samples piggyback on traced operations
//     (the first operation at or after each interval boundary) for exactly
//     this reason — a sampler driven by its own engine events could outlive
//     the last thread and move the run's end time.
//
// Two sinks ship with the package: ChromeWriter, a ring-buffered writer
// whose output loads in Perfetto (chrome://tracing JSON) or streams as
// JSONL, and Aggregator, an in-memory reducer that keeps per-nodelet
// counts per time bucket and gauge peaks.
package trace

import (
	"fmt"

	"emuchick/internal/memsys"
	"emuchick/internal/sim"
)

// Kind classifies one traced machine event.
type Kind int

const (
	// KindRunBegin marks System.Run starting; Nodelet holds the machine's
	// nodelet count.
	KindRunBegin Kind = iota
	// KindRunEnd marks the run draining; Time is the run's end time.
	KindRunEnd
	// KindSpawn is a parent issuing a spawn: Nodelet is the parent's
	// nodelet, Target the child's, End the child's dispatch time.
	KindSpawn
	// KindThreadStart marks a thread obtaining a context slot and starting
	// to run; the gap from its KindSpawn shows slot pressure.
	KindThreadStart
	// KindThreadEnd marks a thread finishing (after its implicit sync) —
	// the join side of the spawn tree.
	KindThreadEnd
	// KindMigrate is a thread context moving between nodelets: Nodelet is
	// the source, Target the destination, Addr the remote word that
	// triggered it (0 for an explicit MigrateTo), Time departure and End
	// arrival.
	KindMigrate
	// KindLoad is a local word read: Time issue, End load-to-use complete.
	KindLoad
	// KindStore is a local word write.
	KindStore
	// KindRemoteStore is a posted store: Nodelet the sender, Target the
	// word's home nodelet, End the delivery at the home channel.
	KindRemoteStore
	// KindAtomic is a memory-side atomic served by the word's home
	// nodelet (Target); blocking or posted.
	KindAtomic
	// KindFaultStall is one backoff wait of a thread whose migration found
	// the engine stalled or the fabric link down (fault injection): Nodelet
	// is where the thread is stuck, Target the migration's destination,
	// Time the retry and End when the thread polls again. Consecutive
	// stall events for one migration render the stall window in Perfetto.
	KindFaultStall
	numKinds
)

// String names the kind in the stable lowercase vocabulary the JSONL schema
// uses.
func (k Kind) String() string {
	switch k {
	case KindRunBegin:
		return "run_begin"
	case KindRunEnd:
		return "run_end"
	case KindSpawn:
		return "spawn"
	case KindThreadStart:
		return "thread_start"
	case KindThreadEnd:
		return "thread_end"
	case KindMigrate:
		return "migrate"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindRemoteStore:
		return "remote_store"
	case KindAtomic:
		return "atomic"
	case KindFaultStall:
		return "fault_stall"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// HasAddr reports whether events of this kind carry a meaningful address.
func (k Kind) HasAddr() bool {
	switch k {
	case KindLoad, KindStore, KindRemoteStore, KindAtomic, KindMigrate:
		return true
	}
	return false
}

// Event is one machine operation as observed by a tracer. Time is when the
// operation issued and End when it completed (End == Time for instantaneous
// markers); the difference is queueing plus service plus latency, so a
// saturated channel or migration engine is visible as stretching events.
type Event struct {
	Time    sim.Time
	End     sim.Time
	Kind    Kind
	Nodelet int         // where the issuing thread resides (see per-kind docs)
	Target  int         // destination nodelet for remote kinds; -1 otherwise
	Addr    memsys.Addr // the word involved, when Kind.HasAddr()
}

// Duration is the event's issue-to-complete span.
func (e Event) Duration() sim.Time { return e.End - e.Time }

// String renders the event as one human-readable trace line.
func (e Event) String() string {
	if e.Target >= 0 {
		return fmt.Sprintf("%12v %-12s nl%d -> nl%d %v", e.Time, e.Kind, e.Nodelet, e.Target, e.Addr)
	}
	return fmt.Sprintf("%12v %-12s nl%d %v", e.Time, e.Kind, e.Nodelet, e.Addr)
}

// Sample is one periodic gauge reading for one nodelet: the instantaneous
// queue depths the end-of-run counters cannot show.
type Sample struct {
	Time    sim.Time
	Nodelet int
	// ContextsUsed is the number of resident thread contexts (the
	// hardware run queue of the nodelet's Gossamer cores).
	ContextsUsed int
	// ContextWaiters is how many threads (inbound migrations or fresh
	// spawns) are blocked waiting for a context slot.
	ContextWaiters int
	// ChannelBacklog is the service time already booked ahead of a new
	// arrival at the nodelet's NCDRAM channel — its queue depth in time.
	ChannelBacklog sim.Time
	// MigrationBacklog is the backlog at the owning node's migration
	// engine (shared by the node's nodelets).
	MigrationBacklog sim.Time
}

// Observer receives the event stream of one or more runs. Implementations
// must not touch the simulation (see the package contract); they are called
// synchronously from the engine's single-threaded context, so they need no
// locking but must be cheap.
type Observer interface {
	// Event delivers one discrete machine event, in non-decreasing Time
	// order within a run.
	Event(Event)
	// Sample delivers one per-nodelet gauge reading; the machine emits a
	// burst of one Sample per nodelet at each sampling boundary.
	Sample(Sample)
}

// FuncObserver adapts a pair of functions to the Observer interface; either
// may be nil.
type FuncObserver struct {
	OnEvent  func(Event)
	OnSample func(Sample)
}

// Event implements Observer.
func (f FuncObserver) Event(e Event) {
	if f.OnEvent != nil {
		f.OnEvent(e)
	}
}

// Sample implements Observer.
func (f FuncObserver) Sample(s Sample) {
	if f.OnSample != nil {
		f.OnSample(s)
	}
}

// tee fans the stream out to several observers in order.
type tee []Observer

func (t tee) Event(e Event) {
	for _, o := range t {
		o.Event(e)
	}
}

func (t tee) Sample(s Sample) {
	for _, o := range t {
		o.Sample(s)
	}
}

// Tee returns an Observer that forwards every event and sample to each of
// obs in order. Nil entries are dropped; a single survivor is returned
// unwrapped.
func Tee(obs ...Observer) Observer {
	var out tee
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
