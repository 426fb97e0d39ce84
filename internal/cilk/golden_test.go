package cilk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"emuchick/internal/machine"
	"emuchick/internal/sim"
	"emuchick/internal/trace"
)

// Golden digests for the spawn trees: the SHA-256 of a run's trace event
// stream, elapsed time and per-nodelet counters. They were recorded from
// the goroutine spawn trees, so the continuation forms are held to the old
// event streams bit for bit.

// runDigest folds one finished run into its golden digest.
func runDigest(elapsed sim.Time, events []trace.Event, s *machine.System) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintln(h, int64(e.Time), int64(e.End), int(e.Kind), e.Nodelet, e.Target, uint64(e.Addr))
	}
	fmt.Fprintf(h, "%d %s\n", int64(elapsed), recordedCounters(s))
	return hex.EncodeToString(h.Sum(nil))
}

// recordedCounters prints the counters in the %+v layout the digests were
// recorded in, when NodeletCounters also had a ServiceCalls field (zero in
// every scenario here) just before StalledMigrations.
func recordedCounters(s *machine.System) string {
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

// workersDigests pins every strategy of TestContWorkersMatchGoroutineAllStrategies.
var workersDigests = map[Strategy]string{
	SerialSpawn:          "a6041425f28fe79b1e2fdeb955c5eb3b44b9e88915028c454c27ed26a626256c",
	RecursiveSpawn:       "271851a5f4cfc75c38bab4746e4323d4f632fb5337ebf1af2bd987b6e935d709",
	SerialRemoteSpawn:    "7bd188c922e2d292402e3b8245ff48d7cf94faec597e48ee39b1ae00b92f51b6",
	RecursiveRemoteSpawn: "eb88583b88dacf2a1204b35c481c87d3ad267722f40ed950a6578bd17e4578a1",
}

// parForDigests pins every case of TestContParallelForMatchesGoroutine.
var parForDigests = map[string]string{
	"n=37/grain=1":   "828a5d4d75360fd8b45ade489ab311b8d50ca9ab8b04bc72a8c5011265aa9f12",
	"n=37/grain=4":   "f6ad39e14e5461ed4cf8742f1247c16c767b60d5094823185b2d5562e3eeb8fc",
	"n=37/grain=36":  "f9eeae2c2376f98748a65b64fce0fae7464a370bcf669c99160d3714d7690736",
	"n=37/grain=37":  "b7c336f4718fb85182edb63f6e73c653bf5b22db144d1f020172e333f3980f10",
	"n=37/grain=100": "b7c336f4718fb85182edb63f6e73c653bf5b22db144d1f020172e333f3980f10",
	"n=64/grain=0":   "9732ce6893de79ac953eec5f570624bfd816722b064af00393ebe051d956f38d",
	"n=1/grain=5":    "b3011727b3f7470338d7fcd450dd48fadfe0180754ddd2e9d895b687041d3f22",
}

// script is a test thread body: its functions run in order, each issuing
// at most one operation and returning that operation's parked result.
type script []func(t *machine.CThread) bool

func (s *script) Step(t *machine.CThread) bool {
	for len(*s) > 0 {
		op := (*s)[0]
		*s = (*s)[1:]
		if op(t) {
			return false
		}
	}
	return true
}

// drives is a test thread body that runs each driver to completion in order.
type drives []Driver

func (d *drives) Step(t *machine.CThread) bool {
	for len(*d) > 0 {
		if (*d)[0].Drive(t) {
			return false
		}
		*d = (*d)[1:]
	}
	return true
}
