package machine

import (
	"context"

	"emuchick/internal/memsys"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// The machine layer streams its operations into a trace.Observer: thread
// spawn/start/end, migrations with their trigger address, memory operation
// issue/complete, and periodic per-nodelet gauge samples. The contract is
// zero overhead when detached (emit is a single nil check, no allocation)
// and zero perturbation when attached: an observer only reads model state,
// never schedules events or touches a resource, so simulated times and
// counters are bit-identical either way. Gauge samples therefore piggyback
// on traced operations — the first operation at or after each interval
// boundary triggers one Sample per nodelet — instead of being driven by
// engine events of their own, which could outlive the last thread and move
// the run's end time.

// defaultSampleEvery is the gauge sampling interval a system starts with;
// SampleEvery overrides it, and sampling only occurs while an observer is
// attached.
const defaultSampleEvery = sim.Microsecond

// Attach installs obs as the system's observer (nil detaches). It must be
// called before Run; the machine emits events synchronously from the
// engine's context, so obs needs no locking but must not touch the
// simulation.
func (s *System) Attach(obs trace.Observer) { s.obs = obs }

// Observer returns the attached observer, or nil.
func (s *System) Observer() trace.Observer { return s.obs }

// SampleEvery sets the gauge-sampling interval (d <= 0 disables sampling).
// Samples are taken at the first traced operation at or after each interval
// boundary, so they can never perturb the event stream.
func (s *System) SampleEvery(d sim.Time) {
	if d <= 0 {
		s.sampleEvery = 0
		return
	}
	s.sampleEvery = d
	s.nextSample = d
}

// WatchContext aborts the run with ctx's error once ctx is cancelled (nil
// detaches). The engine polls the context every few thousand events, so a
// SIGINT-driven cancel lands promptly without per-event overhead.
func (s *System) WatchContext(ctx context.Context) {
	if ctx == nil {
		s.Eng.Interrupt = nil
		return
	}
	s.Eng.Interrupt = ctx.Err
}

// emit streams one event to the observer, then takes gauge samples if an
// interval boundary has passed. The nil check is the entire cost of the
// detached fast path; keeping only that check in emit lets it inline into
// every machine operation, so a detached run never pays a call here at all.
//
//emu:hotpath nil-observer emit path: one inlined comparison when detached
func (s *System) emit(kind trace.Kind, nodelet, target int, addr memsys.Addr, start, end sim.Time) {
	if s.obs == nil {
		return
	}
	s.emitSlow(kind, nodelet, target, addr, start, end)
}

// emitSlow is emit's attached-observer path: deliver the event, then sample
// gauges if an interval boundary has passed. The local re-check mirrors
// emit's guard (it can't fail — emit already returned on nil).
func (s *System) emitSlow(kind trace.Kind, nodelet, target int, addr memsys.Addr, start, end sim.Time) {
	obs := s.obs
	if obs == nil {
		return
	}
	obs.Event(trace.Event{Time: start, End: end, Kind: kind, Nodelet: nodelet, Target: target, Addr: addr})
	if s.sampleEvery > 0 {
		if now := s.Eng.Now(); now >= s.nextSample {
			s.takeSamples(now)
		}
	}
}

// takeSamples reads every nodelet's gauges at now and advances the next
// sampling boundary past now. Both callers (emit, and the end-of-run
// boundary flush) already hold a non-nil observer, but the delivery loop
// re-checks locally so the guard is visible at the call through the
// interface itself.
//
//emu:hotpath runs only while sampling, but sits on the traced-run emit path
func (s *System) takeSamples(now sim.Time) {
	obs := s.obs
	if obs == nil {
		return
	}
	for i := range s.nodelets {
		nl := s.nodelets[i]
		obs.Sample(trace.Sample{
			Time:             now,
			Nodelet:          i,
			ContextsUsed:     nl.slots.InUse(),
			ContextWaiters:   nl.slots.Waiting(),
			ChannelBacklog:   backlog(nl.channel, now),
			MigrationBacklog: backlog(s.migEngines[s.Cfg.NodeOf(i)], now),
		})
	}
	if s.sampleEvery > 0 {
		steps := (now-s.nextSample)/s.sampleEvery + 1
		s.nextSample += steps * s.sampleEvery
	}
}

// backlog is the service time already booked ahead of a new arrival at r —
// its queue depth expressed in time.
func backlog(r *sim.Resource, now sim.Time) sim.Time {
	if b := r.FreeAt() - now; b > 0 {
		return b
	}
	return 0
}
