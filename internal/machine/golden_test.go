package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"emuchick/internal/sim"
)

// Golden digests for the machine model. Each digest is the SHA-256 of a
// run's elapsed time, per-nodelet counters, full observer stream (events and
// gauge samples, timestamps included) and any functional results the
// scenario reports. They were recorded from the goroutine Thread the
// continuation CThread replaced, so the thread model is held to the old
// event stream bit for bit.

// scenarioDigest folds one finished run into its golden digest.
func scenarioDigest(elapsed sim.Time, col *eqCollector, s *System, results []int64) string {
	h := sha256.New()
	for _, e := range col.events {
		fmt.Fprintln(h, "E", int64(e.Time), int64(e.End), int(e.Kind), e.Nodelet, e.Target, uint64(e.Addr))
	}
	for _, sm := range col.samples {
		fmt.Fprintf(h, "S %+v\n", sm)
	}
	fmt.Fprintf(h, "R %d %v\n", int64(elapsed), results)
	fmt.Fprintf(h, "C %+v\n", s.Counters.Snapshot())
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest fails the test when got differs from the recorded digest.
func checkDigest(t *testing.T, label, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: digest drifted:\n  got  %s\n  want %s", label, got, want)
	}
}

// atomicsGoldenDigest pins the memory-side atomics and the service queue:
// blocking FetchAdd and posted RemoteAddFloat, local and across node cards,
// and ServiceCall round trips contending for each node's stationary core.
const atomicsGoldenDigest = "c435c50b310812ffd8747dc8cb05dd681b964d2a72467b5744618ed46542cff5"

// script is a test thread body: its functions run in order, each issuing
// at most one operation and returning that operation's parked result. A
// function can read the previous operation's result through Value.
type script []func(t *CThread) bool

func (s *script) Step(t *CThread) bool {
	for len(*s) > 0 {
		op := (*s)[0]
		*s = (*s)[1:]
		if op(t) {
			return false
		}
	}
	return true
}

// TestAtomicsAndServiceGolden runs fan children spread over two node cards;
// each performs every atomic kind against a shared word on nodelet 0 and a
// word on its own nodelet, then an OS request, and the root gathers the
// totals with blocking atomics after the join. The FetchAdd return values
// and service round-trip times are part of the digest.
func TestAtomicsAndServiceGolden(t *testing.T) {
	const fan = 40
	s := NewSystem(HardwareChickNodes(2))
	col := &eqCollector{}
	s.Attach(col)
	acc := s.Mem.AllocStriped(s.Nodelets())
	facc := s.Mem.AllocStriped(s.Nodelets())
	results := make([]int64, 3*fan+s.Nodelets()+1)
	child := func(k int) *script {
		var start sim.Time
		return &script{
			func(c *CThread) bool { return c.CFetchAdd(acc.At(0), uint64(k+1)) },
			func(c *CThread) bool {
				results[3*k] = int64(c.Value())
				return c.CFetchAdd(acc.At(c.Nodelet()), 2)
			},
			func(c *CThread) bool {
				results[3*k+1] = int64(c.Value())
				return c.CRemoteAddFloat(facc.At(0), 0.5*float64(k))
			},
			func(c *CThread) bool { return c.CRemoteAddFloat(facc.At(c.Nodelet()), 0.25) },
			func(c *CThread) bool { start = c.Now(); return c.CServiceCall(int64(100 + 7*k)) },
			func(c *CThread) bool { results[3*k+2] = int64(c.Now() - start); return c.CCompute(5) },
		}
	}
	var root script
	for k := 0; k < fan; k++ {
		root = append(root, func(r *CThread) bool { return r.CSpawnAt(k%r.System().Nodelets(), child(k)) })
	}
	root = append(root, (*CThread).CSync)
	for nl := 0; nl < s.Nodelets(); nl++ {
		root = append(root,
			func(r *CThread) bool { return r.CFetchAdd(acc.At(nl), 0) },
			func(r *CThread) bool { results[3*fan+nl] = int64(r.Value()); return false })
	}
	var start sim.Time
	root = append(root,
		func(r *CThread) bool { start = r.Now(); return r.CServiceCall(50) },
		func(r *CThread) bool { results[len(results)-1] = int64(r.Now() - start); return false })
	elapsed, err := s.Run(&root)
	if err != nil {
		t.Fatal(err)
	}
	var fsum float64
	for i := 0; i < facc.Len(); i++ {
		fsum += math.Float64frombits(s.Mem.Read(facc.At(i)))
	}
	if want := 0.5*float64(fan*(fan-1)/2) + 0.25*fan; fsum != want {
		t.Fatalf("float accumulations summed to %v, want %v", fsum, want)
	}
	if m := s.Counters.TotalMigrations(); m != 0 {
		t.Fatalf("atomics and service calls migrated %d times", m)
	}
	checkDigest(t, "atomics", scenarioDigest(elapsed, col, s, results), atomicsGoldenDigest)
}

// The engine-equivalence scenarios of cthread_test.go, recorded from their
// goroutine bodies.
const (
	mixedOpsDigest     = "21d74b369280d15c94261713341b832c42c91cd24310503350c6a47aae542b70"
	spawnTreeDigest    = "0e6de8e94bdd5e37690819b1640e975582bf7ad87cb8ec95ec51bc855fa21443"
	crossNodeDigest    = "8e1c8e2d517034466ae41ba4abb4753f17f4868ee08c513ca638e0f6645ef00d"
	crossChassisDigest = "bb618926332107353a5897a73845c1433ad30380845c0487835266566daa7087"
	underFaultsDigest  = "8bab920a70a88bb39dd5c6e109ebca0af38c7807162b34ab083e1c3d2a429ca8"
	remoteAddDigest    = "7616f7be343e42db886827496d0acdd36dfa648146451a96796315d3e94b3e78"
)
