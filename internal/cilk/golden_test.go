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

// workersShapes are the (nodelets, workers) cases of
// TestContWorkersShapesGolden, on the 8-nodelet HardwareChick.
var workersShapes = []struct{ nodelets, workers int }{
	{8, 1}, {8, 7}, {8, 8}, {8, 9}, {8, 64},
	{3, 2}, {3, 5}, {3, 64},
}

// workersShapeDigests pins every strategy of TestContWorkersShapesGolden,
// recorded from the per-strategy spawner types (eight of them, one phase
// machine each for Workers, Grouped and ParFor).
var workersShapeDigests = map[string]string{
	"serial_spawn/nodelets=8/W=1":            "17afd3722420279815a19b065f167ddc926c16e51f37ca3283f29e0423c5a9fa",
	"recursive_spawn/nodelets=8/W=1":         "17afd3722420279815a19b065f167ddc926c16e51f37ca3283f29e0423c5a9fa",
	"serial_remote_spawn/nodelets=8/W=1":     "f1788d73622fad0b89d99e587635ec7dd6455197af7fef8bdf011cd78cdb1116",
	"recursive_remote_spawn/nodelets=8/W=1":  "f1788d73622fad0b89d99e587635ec7dd6455197af7fef8bdf011cd78cdb1116",
	"serial_spawn/nodelets=8/W=7":            "b7a9231d822c2f0c1dfdcf30afa80916c4e8023ea260a00758049b132bd8c03d",
	"recursive_spawn/nodelets=8/W=7":         "e946e259642b88755a8dc87cbe7fa1da5298f82bfb61846332c101a0ed709df6",
	"serial_remote_spawn/nodelets=8/W=7":     "156fa09d189c7873576a40a8bac72ceba2c1d1e57195acf0a9366a830bdad92c",
	"recursive_remote_spawn/nodelets=8/W=7":  "d8615fd29107c7d04f2f8cf0393a2e61ddc5d0087e4ca43ef352acbffe50dba4",
	"serial_spawn/nodelets=8/W=8":            "ee4fb3c1574139a378ff284d0a2e16da2d2bc1262e9627f0c7694215412bfb9f",
	"recursive_spawn/nodelets=8/W=8":         "fb1e62c69923b9afcbd343ddf1de61162389c0f4deffe053b19ba55e8fe5d2eb",
	"serial_remote_spawn/nodelets=8/W=8":     "80eb9cafc16709db536279f3efdf64a8bf59cf8fe552e55bf804e0018add9488",
	"recursive_remote_spawn/nodelets=8/W=8":  "456e0c1a9c95005ca804878a885e288f47ea5919774a6aa6b8bac9002ddaf459",
	"serial_spawn/nodelets=8/W=9":            "997f0dd24d6213ff1d767a9cd92db16de08525c01d4dff814e7c11c9241bcb04",
	"recursive_spawn/nodelets=8/W=9":         "714cc0c8f100814f8fd63a4bf662992eeca758c29c7f9e8117adc836eb0fd2ed",
	"serial_remote_spawn/nodelets=8/W=9":     "5fd946d5125edf6b314483a406d4c473ad4e1c43ebec916f4927b13761941e39",
	"recursive_remote_spawn/nodelets=8/W=9":  "045811b3dbafd1302467f2162704ad90bf0a654ea902fa834f5c0a168898a0fa",
	"serial_spawn/nodelets=8/W=64":           "03779d644383f2a7ea8972c65add3429c6bcb146dfd3ec2beb229fc93b9694af",
	"recursive_spawn/nodelets=8/W=64":        "642565a745a671b6a14d327988d29bf4bcf09f3ba91eaab4569fed323e1c0a50",
	"serial_remote_spawn/nodelets=8/W=64":    "a2d95041192d9b5252ad491ea5d38da90c04e05d2ec92dd3c153be5bfc70627d",
	"recursive_remote_spawn/nodelets=8/W=64": "d4a18ba576f0c0a51afdfdcf451909c3362d5be9e8de1f0a0ebfacb87fff9fcb",
	"serial_spawn/nodelets=3/W=2":            "ec3603a27f6bc8c905d38daa97d838d26942e6bf880fac89d3bdb261ca62e619",
	"recursive_spawn/nodelets=3/W=2":         "b729c50b9a612fc30fbc308f7bd39a75b1c1616b64828d61a99e5b032c7e24d8",
	"serial_remote_spawn/nodelets=3/W=2":     "81ea97b98d6874646014893af19e139039a04062ba04ace293151061ce749865",
	"recursive_remote_spawn/nodelets=3/W=2":  "30b4f8c4d4577800404ebbff40ee615b6cda3b7ead2d4982d8885bc504fb2cc4",
	"serial_spawn/nodelets=3/W=5":            "a8fcbbb59df23c7a2c86da1832b4f2b21ea4a666cb75106c618a6d3bc767fbc5",
	"recursive_spawn/nodelets=3/W=5":         "445bdf5a6fef80d0114c6dac4b74e68b159218f7973776396b8f14c697ed05a9",
	"serial_remote_spawn/nodelets=3/W=5":     "002c7e775ccde599b67b75303dfefa5c97878deb6c18369618dff2865061d3b0",
	"recursive_remote_spawn/nodelets=3/W=5":  "b31837e01588eed5f648213936f59ca01157a5bb96c856f77d953bb0bdf24ad8",
	"serial_spawn/nodelets=3/W=64":           "03779d644383f2a7ea8972c65add3429c6bcb146dfd3ec2beb229fc93b9694af",
	"recursive_spawn/nodelets=3/W=64":        "642565a745a671b6a14d327988d29bf4bcf09f3ba91eaab4569fed323e1c0a50",
	"serial_remote_spawn/nodelets=3/W=64":    "3ac93461243570dace462eae47693a48063fafd05a1e1200f29053a2b6061de0",
	"recursive_remote_spawn/nodelets=3/W=64": "f8cb545ff765832403056216bda74459a63585d8c71c6212f9cfdf16ba09245e",
}

// groupedRootGoldenDigest pins TestContGroupedRootGroupGolden, recorded
// alongside workersShapeDigests.
const groupedRootGoldenDigest = "58046ee771622481f47e51befbfb48f4bf572a3013a53c16a8869bbfc0accca9"

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
