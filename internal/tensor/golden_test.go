package tensor

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/trace"
)

// Golden digests for the Emu tensor kernels: the SHA-256 of a run's trace
// event stream, per-nodelet counters and reported result. They were
// recorded from the goroutine TTV and MTTKRP kernels, so the continuation
// forms are held to the old event streams bit for bit.

type eventRecorder struct{ events []trace.Event }

func (r *eventRecorder) Event(e trace.Event) { r.events = append(r.events, e) }
func (r *eventRecorder) Sample(trace.Sample) {}

// observed runs kernel with newSystem wrapped to record the machine it
// builds, and returns the run's digest.
func observed(t *testing.T, kernel func() (metrics.Result, error)) string {
	t.Helper()
	var sys *machine.System
	rec := &eventRecorder{}
	defer func(orig func(machine.Config) *machine.System) { newSystem = orig }(newSystem)
	newSystem = func(cfg machine.Config) *machine.System {
		sys = machine.NewSystem(cfg)
		sys.Attach(rec)
		return sys
	}
	res, err := kernel()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range rec.events {
		fmt.Fprintln(h, int64(e.Time), int64(e.End), int(e.Kind), e.Nodelet, e.Target, uint64(e.Addr))
	}
	fmt.Fprintf(h, "%+v\n%d %d\n", sys.Counters.Snapshot(), res.Bytes, int64(res.Elapsed))
	return hex.EncodeToString(h.Sum(nil))
}

var tensorGoldenDigests = map[string]string{
	"ttv/1d":    "2293b6d17a4d5269f2768fd8412fed38de272861434aa28eeda3bc92ac565571",
	"ttv/2d":    "2a09f3994220563c9da80b703f249cacfe353e83c351b35e8b1eceaec229f1b8",
	"mttkrp/1d": "8fd5bd627a121dc5091a52aa2b038989fb0d47e9ae2e34fccc3f9f21f38565ad",
	"mttkrp/2d": "31e62455252b8e668aca50c59083b257b1e1ca1a262709e24f6c72de12c728bf",
}

func TestTensorKernelsGolden(t *testing.T) {
	dims := [3]int{12, 10, 9}
	for _, layout := range Layouts {
		name := "ttv/" + layout.String()
		got := observed(t, func() (metrics.Result, error) {
			return TTVEmu(machine.HardwareChick(), TTVConfig{Dims: dims, NNZ: 300, Seed: 5, Layout: layout, GrainNNZ: 7})
		})
		if want := tensorGoldenDigests[name]; got != want {
			t.Errorf("%s: digest drifted:\n  got  %s\n  want %s", name, got, want)
		}
		name = "mttkrp/" + layout.String()
		got = observed(t, func() (metrics.Result, error) {
			return MTTKRPEmu(machine.HardwareChick(), MTTKRPConfig{Dims: dims, NNZ: 120, Rank: 3, Seed: 5, Layout: layout, GrainNNZ: 5})
		})
		if want := tensorGoldenDigests[name]; got != want {
			t.Errorf("%s: digest drifted:\n  got  %s\n  want %s", name, got, want)
		}
	}
}
