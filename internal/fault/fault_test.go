package fault

import (
	"reflect"
	"testing"

	"emuchick/internal/sim"
)

func TestEmptyPlanResolvesNil(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan not empty")
	}
	for _, p := range []*Plan{nil, {}, {Seed: 7}} {
		r, err := p.Resolve(8, 1)
		if err != nil {
			t.Fatalf("empty plan resolve error: %v", err)
		}
		if r != nil {
			t.Fatalf("empty plan resolved to %+v, want nil", r)
		}
	}
}

func TestResolveDeterministicPerSeed(t *testing.T) {
	plan := func(seed uint64) *Plan {
		return &Plan{Seed: seed, Channels: []Slowdown{{Factor: 4, Count: 3}}}
	}
	a, err := plan(42).Resolve(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan(42).Resolve(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ChannelScale, b.ChannelScale) {
		t.Fatalf("same seed resolved differently: %v vs %v", a.ChannelScale, b.ChannelScale)
	}
	degraded := 0
	for _, f := range a.ChannelScale {
		switch f {
		case 1:
		case 4:
			degraded++
		default:
			t.Fatalf("unexpected scale %v", f)
		}
	}
	if degraded != 3 {
		t.Fatalf("degraded %d nodelets, want 3", degraded)
	}
	c, err := plan(43).Resolve(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds are allowed to coincide in principle, but 3-of-8
	// picks from distinct xorshift streams virtually never do; a failure
	// here means the seed is being ignored.
	if reflect.DeepEqual(a.ChannelScale, c.ChannelScale) {
		t.Fatalf("seed ignored: 42 and 43 picked the same nodelets %v", a.ChannelScale)
	}
}

func TestSlowdownSelectionModes(t *testing.T) {
	r, err := (&Plan{Cores: []Slowdown{{Factor: 2}}}).Resolve(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.CoreScale, []float64{2, 2, 2, 2}) {
		t.Fatalf("all-nodelet slowdown = %v", r.CoreScale)
	}
	r, err = (&Plan{Cores: []Slowdown{{Factor: 3, Nodelets: []int{1, 3}}}}).Resolve(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.CoreScale, []float64{1, 3, 1, 3}) {
		t.Fatalf("explicit slowdown = %v", r.CoreScale)
	}
	// Overlapping rules compose multiplicatively.
	r, err = (&Plan{Cores: []Slowdown{{Factor: 2}, {Factor: 3, Nodelets: []int{0}}}}).Resolve(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.CoreScale, []float64{6, 2}) {
		t.Fatalf("composed slowdown = %v", r.CoreScale)
	}
}

func TestStallWindows(t *testing.T) {
	r, err := (&Plan{Stalls: []Stall{{Duration: 10 * sim.Microsecond, Period: 100 * sim.Microsecond}}}).Resolve(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t       sim.Time
		until   sim.Time
		blocked bool
	}{
		{0, 10 * sim.Microsecond, true},
		{5 * sim.Microsecond, 10 * sim.Microsecond, true},
		{10 * sim.Microsecond, 0, false},
		{99 * sim.Microsecond, 0, false},
		{100 * sim.Microsecond, 110 * sim.Microsecond, true},
		{205 * sim.Microsecond, 210 * sim.Microsecond, true},
	}
	for _, c := range cases {
		until, blocked := r.BlockedUntil(0, false, c.t)
		if blocked != c.blocked || until != c.until {
			t.Errorf("BlockedUntil(%v) = (%v, %v), want (%v, %v)", c.t, until, blocked, c.until, c.blocked)
		}
	}
}

func TestLinkOutageBlocksOnlyCrossings(t *testing.T) {
	p := &Plan{Links: []LinkFault{{Factor: 0, Start: 5 * sim.Microsecond, End: 20 * sim.Microsecond}}}
	r, err := p.Resolve(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, blocked := r.BlockedUntil(0, false, 10*sim.Microsecond); blocked {
		t.Fatal("intra-node migration blocked by a link outage")
	}
	until, blocked := r.BlockedUntil(0, true, 10*sim.Microsecond)
	if !blocked || until != 20*sim.Microsecond {
		t.Fatalf("crossing during outage = (%v, %v)", until, blocked)
	}
	if _, blocked := r.BlockedUntil(0, true, 25*sim.Microsecond); blocked {
		t.Fatal("crossing after window blocked")
	}
}

func TestLinkScale(t *testing.T) {
	p := &Plan{Links: []LinkFault{{Factor: 4, Start: 0, End: 10 * sim.Microsecond}, {Factor: 2}}}
	r, err := p.Resolve(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f := r.LinkScale(0, 5*sim.Microsecond); f != 8 {
		t.Fatalf("overlapping windows scale = %v, want 8", f)
	}
	if f := r.LinkScale(0, 15*sim.Microsecond); f != 2 {
		t.Fatalf("open-ended window scale = %v, want 2", f)
	}
}

func TestBackoffDoublesToCap(t *testing.T) {
	r, err := (&Plan{
		Stalls:  []Stall{{Duration: 1 * sim.Microsecond, Period: 2 * sim.Microsecond}},
		Backoff: Backoff{BaseCycles: 64, MaxCycles: 256},
	}).Resolve(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{64, 128, 256, 256, 256}
	for i, w := range want {
		if got := r.BackoffCycles(i); got != w {
			t.Errorf("BackoffCycles(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestScaleIdentityAtFactorOne(t *testing.T) {
	for _, v := range []sim.Time{0, 1, 50 * sim.Nanosecond, 3 * sim.Second} {
		if Scale(v, 1) != v {
			t.Fatalf("Scale(%v, 1) = %v", v, Scale(v, 1))
		}
	}
	if Scale(50*sim.Nanosecond, 2.5) != 125*sim.Nanosecond {
		t.Fatalf("Scale(50ns, 2.5) = %v", Scale(50*sim.Nanosecond, 2.5))
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []*Plan{
		{Cores: []Slowdown{{Factor: 0.5}}},
		{Channels: []Slowdown{{Factor: 0}}},
		{Links: []LinkFault{{Factor: 0}}},                                                   // open-ended outage
		{Links: []LinkFault{{Factor: 0.5, End: sim.Microsecond}}},                           // accelerating link
		{Links: []LinkFault{{Factor: 2, Start: 2 * sim.Microsecond, End: sim.Microsecond}}}, // inverted window
		{Stalls: []Stall{{Duration: sim.Microsecond, Period: sim.Microsecond}}},             // no service window
		{Stalls: []Stall{{Duration: 0, Period: sim.Microsecond}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p)
		}
		if _, err := p.Resolve(8, 1); err == nil {
			t.Errorf("plan %d resolved: %+v", i, p)
		}
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("cores=2@4, chan=4, link=off@5us-50us, migstall=10us/100us, backoff=32/512", 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Fatalf("seed = %d", p.Seed)
	}
	if len(p.Cores) != 1 || p.Cores[0].Factor != 2 || p.Cores[0].Count != 4 {
		t.Fatalf("cores = %+v", p.Cores)
	}
	if len(p.Channels) != 1 || p.Channels[0].Factor != 4 || p.Channels[0].Count != 0 {
		t.Fatalf("channels = %+v", p.Channels)
	}
	if len(p.Links) != 1 || p.Links[0].Factor != 0 ||
		p.Links[0].Start != 5*sim.Microsecond || p.Links[0].End != 50*sim.Microsecond {
		t.Fatalf("links = %+v", p.Links)
	}
	if len(p.Stalls) != 1 || p.Stalls[0].Duration != 10*sim.Microsecond || p.Stalls[0].Period != 100*sim.Microsecond {
		t.Fatalf("stalls = %+v", p.Stalls)
	}
	if p.Backoff != (Backoff{BaseCycles: 32, MaxCycles: 512}) {
		t.Fatalf("backoff = %+v", p.Backoff)
	}

	for _, bad := range []string{
		"cores", "cores=x", "cores=2@0", "link=off", "link=2@5us",
		"migstall=10us", "migstall=0s/1ms", "backoff=64", "wat=1",
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}
