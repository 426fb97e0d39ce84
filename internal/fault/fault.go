// Package fault is the deterministic fault-injection layer of the
// reproduction. The paper characterizes a prototype that ran below design
// speed precisely because real machines degrade — firmware limited the Chick
// to one node, the Gossamer clock ran at half its design rate, and the
// migration engine sustained 9 M instead of 16 M migrations/s — and the
// follow-up microbenchmark and NUMA-migration studies show that the
// interesting behaviour of migratory-thread systems appears under contention
// and imbalance, not in the clean case.
//
// A Plan describes degradation declaratively: per-nodelet core slowdown
// factors, NCDRAM channel throttling, fabric-link degradation or outage
// windows, and periodic migration-engine stall windows with a modelled
// retry-with-backoff path. Plans are fully deterministic: a given (plan,
// seed) resolves to the same per-nodelet assignment on every run, so figures
// produced under faults are bit-identical at any experiment parallelism.
//
// The hard contract with the machine layer, mirrored from the observer
// model: a nil or empty plan leaves every simulated time and counter
// byte-identical to an uninjected run. The machine only takes a fault code
// path when the resolved plan actually degrades the resource in question.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"emuchick/internal/sim"
	"emuchick/internal/workload"
)

// Slowdown scales the service time of one resource class on a set of
// nodelets. The set is chosen three ways, in precedence order: an explicit
// Nodelets list, a seeded random pick of Count nodelets, or (both empty)
// every nodelet.
type Slowdown struct {
	// Factor multiplies the resource's service time; it must lie in
	// [1, MaxFactor] (faults degrade, they never accelerate).
	Factor float64
	// Count selects this many distinct nodelets with the plan's seeded
	// RNG; 0 with a nil Nodelets list means all nodelets.
	Count int
	// Nodelets, when non-empty, names the degraded nodelets explicitly.
	Nodelets []int
}

// LinkFault degrades one or more node cards' fabric egress links inside a
// time window. Factor > 1 stretches context transfer times; Factor == 0 is
// an outage — migrating threads that need the link retry with backoff until
// the window closes.
type LinkFault struct {
	// Factor multiplies the link's transfer time; 0 means outage.
	// Otherwise it must lie in [1, MaxFactor].
	Factor float64
	// Start and End bound the window. End == 0 means "from Start onward"
	// and is only legal for Factor >= 1 (an open-ended outage would stall
	// threads forever).
	Start, End sim.Time
	// Nodes names the affected node cards; empty means all nodes.
	Nodes []int
}

// Stall describes periodic migration-engine stall windows on one or more
// node cards: the engine accepts no migrations for Duration at the start of
// every Period. Threads that attempt to migrate during a window back off and
// retry; the retries, backoff cycles, and stalled migrations are counted.
type Stall struct {
	Duration, Period sim.Time
	// Nodes names the affected node cards; empty means all nodes.
	Nodes []int
}

// Backoff is the retry policy of a thread whose migration finds the engine
// stalled or the link down: wait BaseCycles core cycles, double on each
// consecutive retry, cap at MaxCycles (0 caps at MaxBackoffCycles). The
// zero value selects DefaultBackoff.
type Backoff struct {
	BaseCycles int64
	MaxCycles  int64
}

// DefaultBackoff is the retry policy used when a plan leaves Backoff zero:
// 64-cycle initial wait doubling to a 4096-cycle cap (427 ns to 27 us at the
// prototype's 150 MHz clock).
var DefaultBackoff = Backoff{BaseCycles: 64, MaxCycles: 4096}

// MaxBackoffCycles bounds a backoff's BaseCycles and MaxCycles, and caps the
// doubling of a backoff whose MaxCycles is 0. It is 28.6 s at the
// prototype's 150 MHz; at any clock of 1 kHz or faster its cycles span under
// half of sim.Time's range, so a backoff cannot wrap and move a retry
// earlier.
const MaxBackoffCycles = 1 << 32

// MaxFactor bounds the product of a plan's core factors, of its channel
// factors and of its link factors: rules can overlap on one resource, where
// they multiply. Scaled by it, a one-second service time, longer than any
// single booking the model makes, stays well inside sim.Time (1e18 of
// ~9.2e18 ps).
const MaxFactor = 1e6

// Plan is one deterministic fault scenario. The zero value (and nil) injects
// nothing and is guaranteed byte-identical to an uninjected run.
type Plan struct {
	// Seed drives every random choice the plan makes (which nodelets a
	// Count-based Slowdown degrades). Zero behaves as seed 1.
	Seed uint64

	Cores    []Slowdown // Gossamer core issue-port slowdowns
	Channels []Slowdown // NCDRAM channel throttles
	Links    []LinkFault
	Stalls   []Stall
	Backoff  Backoff
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil ||
		len(p.Cores) == 0 && len(p.Channels) == 0 && len(p.Links) == 0 && len(p.Stalls) == 0
}

// Validate reports a descriptive error for an unusable plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, rules := range [][]Slowdown{p.Cores, p.Channels} {
		product := 1.0
		for i, s := range rules {
			if !(s.Factor >= 1) { // also refuses NaN
				return fmt.Errorf("fault: slowdown %d: factor %v is not >= 1", i, s.Factor)
			}
			if s.Count < 0 {
				return fmt.Errorf("fault: slowdown %d: negative count", i)
			}
			product *= s.Factor
		}
		if product > MaxFactor {
			return fmt.Errorf("fault: slowdown factors multiply to %g > MaxFactor %g", product, MaxFactor)
		}
	}
	product := 1.0
	for i, l := range p.Links {
		if l.Factor != 0 && !(l.Factor >= 1) { // also refuses NaN
			return fmt.Errorf("fault: link fault %d: factor %v is neither 0 (an outage) nor >= 1", i, l.Factor)
		}
		if l.Factor > 0 {
			product *= l.Factor
		}
		if l.End != 0 && l.End <= l.Start {
			return fmt.Errorf("fault: link fault %d: window end %v <= start %v", i, l.End, l.Start)
		}
		if l.Factor == 0 && l.End == 0 {
			return fmt.Errorf("fault: link fault %d: open-ended outage would stall threads forever", i)
		}
	}
	if product > MaxFactor {
		return fmt.Errorf("fault: link factors multiply to %g > MaxFactor %g", product, MaxFactor)
	}
	for i, s := range p.Stalls {
		if s.Duration <= 0 || s.Period <= 0 {
			return fmt.Errorf("fault: stall %d: duration and period must be positive", i)
		}
		if s.Duration >= s.Period {
			return fmt.Errorf("fault: stall %d: duration %v >= period %v leaves no service window", i, s.Duration, s.Period)
		}
	}
	if p.Backoff.BaseCycles < 0 || p.Backoff.MaxCycles < 0 {
		return fmt.Errorf("fault: negative backoff cycles")
	}
	if p.Backoff.BaseCycles > MaxBackoffCycles || p.Backoff.MaxCycles > MaxBackoffCycles {
		return fmt.Errorf("fault: backoff %d/%d cycles past MaxBackoffCycles %d",
			p.Backoff.BaseCycles, p.Backoff.MaxCycles, int64(MaxBackoffCycles))
	}
	if p.Backoff.MaxCycles > 0 && p.Backoff.BaseCycles > p.Backoff.MaxCycles {
		return fmt.Errorf("fault: backoff base %d > max %d", p.Backoff.BaseCycles, p.Backoff.MaxCycles)
	}
	return nil
}

// Resolved is a plan bound to one machine shape: per-nodelet scale tables
// and per-node window lists the machine layer consults on its fault paths.
// A Resolved is read-only after construction and safe to share.
type Resolved struct {
	// CoreScale and ChannelScale hold one service-time multiplier per
	// nodelet; exactly 1 means healthy.
	CoreScale    []float64
	ChannelScale []float64

	links   [][]LinkFault // per node, windows sorted by Start
	stalls  [][]Stall     // per node
	backoff Backoff
}

// Resolve binds the plan to a machine with the given nodelet and node
// counts, performing every seeded choice. It returns nil for an empty plan
// (the caller's signal to stay on the exact fault-free code paths) and an
// error for an invalid one.
func (p *Plan) Resolve(nodelets, nodes int) (*Resolved, error) {
	if p.Empty() {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if nodelets <= 0 || nodes <= 0 {
		return nil, fmt.Errorf("fault: resolve onto %d nodelets / %d nodes", nodelets, nodes)
	}
	r := &Resolved{
		CoreScale:    ones(nodelets),
		ChannelScale: ones(nodelets),
		links:        make([][]LinkFault, nodes),
		stalls:       make([][]Stall, nodes),
		backoff:      p.Backoff,
	}
	if r.backoff == (Backoff{}) {
		r.backoff = DefaultBackoff
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	// Each rule draws from its own RNG stream (seed mixed with a per-rule
	// salt) so inserting a rule never re-deals the nodelets of another.
	for i, s := range p.Cores {
		applySlowdown(r.CoreScale, s, seed, uint64(i)*2+1)
	}
	for i, s := range p.Channels {
		applySlowdown(r.ChannelScale, s, seed, uint64(i)*2+2)
	}
	for _, l := range p.Links {
		for _, nd := range nodesOf(l.Nodes, nodes) {
			if nd < 0 || nd >= nodes {
				return nil, fmt.Errorf("fault: link fault names node %d of %d", nd, nodes)
			}
			r.links[nd] = append(r.links[nd], l)
		}
	}
	for nd := range r.links {
		sort.SliceStable(r.links[nd], func(a, b int) bool {
			return r.links[nd][a].Start < r.links[nd][b].Start
		})
	}
	for _, s := range p.Stalls {
		for _, nd := range nodesOf(s.Nodes, nodes) {
			if nd < 0 || nd >= nodes {
				return nil, fmt.Errorf("fault: stall names node %d of %d", nd, nodes)
			}
			r.stalls[nd] = append(r.stalls[nd], s)
		}
	}
	return r, nil
}

// ones returns a slice of n 1.0 values.
func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// nodesOf expands an empty node list to every node.
func nodesOf(nodes []int, n int) []int {
	if len(nodes) > 0 {
		return nodes
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// applySlowdown multiplies the scale of every nodelet the rule selects.
// Factors compose multiplicatively when rules overlap.
func applySlowdown(scale []float64, s Slowdown, seed, salt uint64) {
	switch {
	case len(s.Nodelets) > 0:
		for _, nl := range s.Nodelets {
			if nl >= 0 && nl < len(scale) {
				scale[nl] *= s.Factor
			}
		}
	case s.Count > 0:
		for _, nl := range pick(len(scale), s.Count, seed, salt) {
			scale[nl] *= s.Factor
		}
	default:
		for i := range scale {
			scale[i] *= s.Factor
		}
	}
}

// pick chooses count distinct values from [0, n) with a seeded
// Fisher-Yates, deterministically per (seed, salt).
func pick(n, count int, seed, salt uint64) []int {
	if count >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := workload.NewRNG(seed ^ (salt+1)*0x9E3779B97F4A7C15)
	perm := rng.Perm(n)
	return perm[:count]
}

// inWindow reports whether t falls inside the fault's window.
func (l LinkFault) inWindow(t sim.Time) bool {
	if t < l.Start {
		return false
	}
	return l.End == 0 || t < l.End
}

// stallWindow reports whether t falls inside a stall window and, if so, when
// the window closes.
func (s Stall) stallWindow(t sim.Time) (until sim.Time, stalled bool) {
	phase := t % s.Period
	if phase < s.Duration {
		return t - phase + s.Duration, true
	}
	return 0, false
}

// BlockedUntil reports whether a migration departing node nd at time t is
// blocked by a fault — a migration-engine stall window, or (when the
// migration crosses node cards) a link outage — and when the earliest moment
// the blockage could clear is. The thread does not snap to that moment; it
// retries with backoff, which is what the retry counters measure.
func (r *Resolved) BlockedUntil(nd int, crossing bool, t sim.Time) (sim.Time, bool) {
	var until sim.Time
	blocked := false
	for _, s := range r.stalls[nd] {
		if u, ok := s.stallWindow(t); ok && u > until {
			until, blocked = u, true
		}
	}
	if crossing {
		for _, l := range r.links[nd] {
			if l.Factor == 0 && l.inWindow(t) && l.End > until {
				until, blocked = l.End, true
			}
		}
	}
	return until, blocked
}

// LinkScale reports the transfer-time multiplier of node nd's fabric link at
// time t (1 when healthy). Outage windows are handled by BlockedUntil, not
// here.
func (r *Resolved) LinkScale(nd int, t sim.Time) float64 {
	f := 1.0
	for _, l := range r.links[nd] {
		if l.Factor > 1 && l.inWindow(t) {
			f *= l.Factor
		}
	}
	return f
}

// BackoffCycles reports the core cycles a thread waits on its attempt-th
// consecutive retry (attempt counts from 0): base doubling to the cap, where
// it saturates.
func (r *Resolved) BackoffCycles(attempt int) int64 {
	c, limit := max(r.backoff.BaseCycles, 1), r.backoff.MaxCycles
	if limit <= 0 {
		limit = MaxBackoffCycles
	}
	for i := 0; i < attempt && c < limit; i++ {
		c *= 2
	}
	return min(c, limit)
}

// Scale multiplies a service time by a fault factor, rounding to the nearest
// picosecond. Factor 1 returns t unchanged (bit-identical).
func Scale(t sim.Time, factor float64) sim.Time {
	if factor == 1 {
		return t
	}
	return sim.Time(float64(t)*factor + 0.5)
}

// Parse builds a plan from the compact CLI grammar used by the -faults
// flags: comma-separated directives, each key=value.
//
//	cores=F[@K]     core slowdown factor F on K seeded nodelets (default all)
//	chan=F[@K]      NCDRAM channel throttle
//	link=F[@S-E]    fabric link transfer times xF inside window [S, E)
//	link=off@S-E    fabric link outage (migrations retry with backoff)
//	migstall=D/P    migration engine stalls for D at the start of every P
//	backoff=B/M     retry backoff: B base cycles doubling to M max
//	                (0: MaxBackoffCycles); both at most MaxBackoffCycles
//
// Factors lie in [1, MaxFactor]. Durations use Go syntax ("10us", "1ms")
// and must fit simulated time (under 2562h); windows omit the window to
// mean the whole run (outages must name one). seed drives the @K
// selections.
//
//	-faults 'chan=4@2,migstall=10us/100us' -fault-seed 7
func Parse(spec string, seed uint64) (*Plan, error) {
	p := &Plan{Seed: seed}
	for _, dir := range strings.Split(spec, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		key, val, ok := strings.Cut(dir, "=")
		if !ok {
			return nil, fmt.Errorf("fault: directive %q is not key=value", dir)
		}
		var err error
		switch key {
		case "cores":
			err = parseSlowdown(&p.Cores, val)
		case "chan":
			err = parseSlowdown(&p.Channels, val)
		case "link":
			err = parseLink(&p.Links, val)
		case "migstall":
			err = parseStall(&p.Stalls, val)
		case "backoff":
			err = parseBackoff(&p.Backoff, val)
		default:
			err = fmt.Errorf("unknown directive %q (cores, chan, link, migstall, backoff)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", dir, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseSlowdown(dst *[]Slowdown, val string) error {
	factorStr, countStr, hasCount := strings.Cut(val, "@")
	f, err := strconv.ParseFloat(factorStr, 64)
	if err != nil {
		return fmt.Errorf("bad factor %q", factorStr)
	}
	s := Slowdown{Factor: f}
	if hasCount {
		k, err := strconv.Atoi(countStr)
		if err != nil || k <= 0 {
			return fmt.Errorf("bad nodelet count %q", countStr)
		}
		s.Count = k
	}
	*dst = append(*dst, s)
	return nil
}

func parseLink(dst *[]LinkFault, val string) error {
	factorStr, windowStr, hasWindow := strings.Cut(val, "@")
	l := LinkFault{}
	if factorStr == "off" {
		l.Factor = 0
	} else {
		f, err := strconv.ParseFloat(factorStr, 64)
		if err != nil {
			return fmt.Errorf("bad factor %q", factorStr)
		}
		l.Factor = f
	}
	if hasWindow {
		startStr, endStr, ok := strings.Cut(windowStr, "-")
		if !ok {
			return fmt.Errorf("bad window %q (want start-end)", windowStr)
		}
		var err error
		if l.Start, err = parseDur(startStr); err != nil {
			return err
		}
		if l.End, err = parseDur(endStr); err != nil {
			return err
		}
	}
	*dst = append(*dst, l)
	return nil
}

func parseStall(dst *[]Stall, val string) error {
	durStr, periodStr, ok := strings.Cut(val, "/")
	if !ok {
		return fmt.Errorf("bad stall %q (want duration/period)", val)
	}
	s := Stall{}
	var err error
	if s.Duration, err = parseDur(durStr); err != nil {
		return err
	}
	if s.Period, err = parseDur(periodStr); err != nil {
		return err
	}
	*dst = append(*dst, s)
	return nil
}

func parseBackoff(dst *Backoff, val string) error {
	baseStr, maxStr, ok := strings.Cut(val, "/")
	if !ok {
		return fmt.Errorf("bad backoff %q (want base/max cycles)", val)
	}
	base, err := strconv.ParseInt(baseStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad base cycles %q", baseStr)
	}
	max, err := strconv.ParseInt(maxStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad max cycles %q", maxStr)
	}
	*dst = Backoff{BaseCycles: base, MaxCycles: max}
	return nil
}

// maxDur is the longest duration simulated time can hold.
const maxDur = time.Duration(math.MaxInt64 / int64(sim.Nanosecond))

// parseDur converts a Go duration literal into simulated time.
func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	if d > maxDur {
		return 0, fmt.Errorf("duration %q is past the range of simulated time (%v)", s, maxDur)
	}
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond, nil
}
