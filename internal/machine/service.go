package machine

import (
	"fmt"

	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// The Emu architecture pairs the Gossamer cores with stationary processors
// that run the operating system: "Any operating system requests are
// forwarded to the stationary control processors through the service
// queue" (section II). The model gives each node one stationary core and a
// service queue; a threadlet performing an OS request blocks for the queue
// round trip plus the request's execution on the stationary core.
//
// The benchmarks themselves make no OS requests inside their timed regions
// (neither do the paper's), but the path exists so that applications built
// on the model — and the service-queue ablation — can measure its cost.

// serviceQueueLatency is the one-way forwarding latency from a nodelet to
// its node's stationary processor.
const serviceQueueLatency = 500 * sim.Nanosecond

// stationaryHz is the stationary core's clock. The prototype implements it
// on the same FPGA fabric as the Gossamer cores.
const stationaryHz = 300e6

// CServiceCall forwards an operating-system request costing the given
// number of stationary-core cycles through the node's service queue. The
// threadlet blocks until the response returns, so the request's round
// trip is the simulated time Step observes across the call.
func (t *CThread) CServiceCall(cycles int64) (parked bool) {
	if cycles < 0 {
		panic(fmt.Sprintf("machine: negative service cycles %d", cycles))
	}
	s := t.sys
	node := s.Cfg.NodeOf(t.nodelet)
	start := t.p.Now()
	arrive := start + serviceQueueLatency
	_, served := s.stationary[node].Acquire(arrive, s.stationaryClock.Cycles(cycles))
	s.Counters.serviceCalls[t.nodelet]++
	finish := served + serviceQueueLatency
	s.emit(trace.KindService, t.nodelet, -1, 0, start, finish)
	return t.sleepOp(finish)
}
