package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// Golden digests for the machine model. Each digest is the SHA-256 of a
// run's elapsed time, per-nodelet counters and full observer stream (events
// and gauge samples, timestamps included). They were recorded from the
// goroutine Thread the continuation CThread replaced, so the thread model is
// held to the old event stream bit for bit.

// scenarioDigest folds one finished run into its golden digest. The digest
// input is frozen in the layout it was recorded in: an empty results list
// after the elapsed time, and the two recorded encodings below.
func scenarioDigest(elapsed sim.Time, col *eqCollector, s *System) string {
	h := sha256.New()
	for _, e := range col.events {
		fmt.Fprintln(h, "E", int64(e.Time), int64(e.End), recordedKind(e.Kind), e.Nodelet, e.Target, uint64(e.Addr))
	}
	for _, sm := range col.samples {
		fmt.Fprintf(h, "S %+v\n", sm)
	}
	fmt.Fprintf(h, "R %d []\n", int64(elapsed))
	fmt.Fprintf(h, "C %s\n", recordedCounters(s))
	return hex.EncodeToString(h.Sum(nil))
}

// recordedKind is the number a kind had when the digests were recorded:
// a service-call kind then sat just before KindFaultStall.
func recordedKind(k trace.Kind) int {
	if k >= trace.KindFaultStall {
		return int(k) + 1
	}
	return int(k)
}

// recordedCounters prints the counters in the %+v layout the digests were
// recorded in, when NodeletCounters also had a ServiceCalls field (zero in
// every scenario here) just before StalledMigrations.
func recordedCounters(s *System) string {
	return strings.ReplaceAll(fmt.Sprintf("%+v", s.Counters.Snapshot()),
		" StalledMigrations:", " ServiceCalls:0 StalledMigrations:")
}

// checkDigest fails the test when got differs from the recorded digest.
func checkDigest(t *testing.T, label, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: digest drifted:\n  got  %s\n  want %s", label, got, want)
	}
}

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

// The engine-equivalence scenarios of cthread_test.go, recorded from their
// goroutine bodies.
const (
	mixedOpsDigest    = "21d74b369280d15c94261713341b832c42c91cd24310503350c6a47aae542b70"
	spawnTreeDigest   = "0e6de8e94bdd5e37690819b1640e975582bf7ad87cb8ec95ec51bc855fa21443"
	crossNodeDigest   = "8e1c8e2d517034466ae41ba4abb4753f17f4868ee08c513ca638e0f6645ef00d"
	underFaultsDigest = "8bab920a70a88bb39dd5c6e109ebca0af38c7807162b34ab083e1c3d2a429ca8"
	remoteAddDigest   = "7616f7be343e42db886827496d0acdd36dfa648146451a96796315d3e94b3e78"
)
