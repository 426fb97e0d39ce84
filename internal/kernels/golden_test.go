package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"emuchick/internal/fault"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/trace"
)

// Golden digests for the SpMV, SpMV-CSX and GUPS kernels. Each case runs one
// small configuration with an observer attached and hashes every machine
// event — (Time, End, Kind, Nodelet, Target, Addr) — every gauge sample, and
// the reported metrics.Result. The digests were recorded from the goroutine
// implementations these kernels used to have, so the continuation port is
// held to the old event stream bit for bit; any change to the model or to a
// kernel's operation order shows up here first.

// digestObserver folds the event and sample streams into a SHA-256.
type digestObserver struct {
	h      hash.Hash
	buf    []byte
	stalls int
}

func newDigestObserver() *digestObserver { return &digestObserver{h: sha256.New()} }

func (d *digestObserver) put(vs ...int64) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	}
	d.h.Write(d.buf)
}

func (d *digestObserver) Event(e trace.Event) {
	if e.Kind == trace.KindFaultStall {
		d.stalls++
	}
	d.put('E', int64(e.Time), int64(e.End), int64(e.Kind), int64(e.Nodelet), int64(e.Target), int64(e.Addr))
}

func (d *digestObserver) Sample(s trace.Sample) {
	d.put('S', int64(s.Time), int64(s.Nodelet), int64(s.ContextsUsed), int64(s.ContextWaiters),
		int64(s.ChannelBacklog), int64(s.MigrationBacklog))
}

// sum closes the digest over the run's result.
func (d *digestObserver) sum(res metrics.Result) string {
	d.put('R', res.Bytes, int64(res.Elapsed))
	return hex.EncodeToString(d.h.Sum(nil))
}

type goldenCase struct {
	name    string
	faulted bool // the case must actually hit its fault plan
	run     func(opts ...RunOption) (metrics.Result, error)
}

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	spmv := func(name string, mcfg machine.Config, cfg SpMVConfig, extra ...RunOption) {
		cases = append(cases, goldenCase{name: name, faulted: len(extra) > 0,
			run: func(opts ...RunOption) (metrics.Result, error) {
				return SpMV(mcfg, cfg, append(opts, extra...)...)
			}})
	}
	for _, layout := range SpMVLayouts {
		for _, stripe := range []bool{false, true} {
			for _, grain := range []int{5, 16, 64} {
				spmv(fmt.Sprintf("spmv/%v/stripe=%v/g%d", layout, stripe, grain), machine.HardwareChick(),
					SpMVConfig{GridN: 10, Layout: layout, GrainNNZ: grain, StripeX: stripe})
			}
		}
	}
	for _, layout := range SpMVLayouts {
		spmv(fmt.Sprintf("spmv/%v/nl4", layout), machine.HardwareChick(),
			SpMVConfig{GridN: 10, Layout: layout, GrainNNZ: 16, Nodelets: 4})
	}
	spmv("spmv/2d/stripe=true/nl4", machine.HardwareChick(),
		SpMVConfig{GridN: 10, Layout: SpMV2D, GrainNNZ: 16, Nodelets: 4, StripeX: true})
	spmv("spmv/1d/2node", machine.HardwareChickNodes(2), SpMVConfig{GridN: 10, Layout: SpMV1D, GrainNNZ: 16})
	plan, err := fault.Parse("chan=4@2,migstall=10us/100us", 7)
	if err != nil {
		t.Fatal(err)
	}
	spmv("spmv/1d/faulted", machine.HardwareChick(), SpMVConfig{GridN: 10, Layout: SpMV1D, GrainNNZ: 16},
		WithFaultPlan(plan))

	csx := func(name string, mcfg machine.Config) {
		cases = append(cases, goldenCase{name: name, run: func(opts ...RunOption) (metrics.Result, error) {
			return SpMVCSX(mcfg, SpMVCSXConfig{GridN: 12, GrainNNZ: 16}, opts...)
		}})
	}
	csx("csx/hw", machine.HardwareChick())
	csx("csx/full1", machine.FullSpeed(1))

	gups := func(name string, mcfg machine.Config, cfg GUPSConfig) {
		cases = append(cases, goldenCase{name: name, run: func(opts ...RunOption) (metrics.Result, error) {
			return GUPS(mcfg, cfg, opts...)
		}})
	}
	for _, seed := range []uint64{1, 7, 42} {
		gups(fmt.Sprintf("gups/seed%d", seed), machine.HardwareChick(),
			GUPSConfig{TableWords: 256, Updates: 2048, Threads: 32, Seed: seed})
	}
	gups("gups/threads>updates", machine.HardwareChick(), GUPSConfig{TableWords: 64, Updates: 20, Threads: 48, Seed: 3})
	gups("gups/full2", machine.FullSpeed(2), GUPSConfig{TableWords: 512, Updates: 4096, Threads: 64, Seed: 5})
	return cases
}

var kernelGolden = map[string]string{
	"spmv/local/stripe=false/g5":  "e7626f323bce0f733f7e3e8ac844e1773f7f5c7a15407e5ea28bb6ad4a9928f5",
	"spmv/local/stripe=false/g16": "cef52ea52d4c3f7186300bc953b1719ed3ab9cb272d152b2b871527c8265f8ad",
	"spmv/local/stripe=false/g64": "e835bfd8fbbd00f5980c75201d19e7a4fd31f6634ffd69fd85b090dd0c7b56cf",
	"spmv/local/stripe=true/g5":   "e7626f323bce0f733f7e3e8ac844e1773f7f5c7a15407e5ea28bb6ad4a9928f5",
	"spmv/local/stripe=true/g16":  "cef52ea52d4c3f7186300bc953b1719ed3ab9cb272d152b2b871527c8265f8ad",
	"spmv/local/stripe=true/g64":  "e835bfd8fbbd00f5980c75201d19e7a4fd31f6634ffd69fd85b090dd0c7b56cf",
	"spmv/1d/stripe=false/g5":     "0c8e27d593d4efa8ebced06bc22c451162b904b171e311a5d44bcd2c683eff81",
	"spmv/1d/stripe=false/g16":    "c02b3ee9977d94141017e94221ece8b5598771ac79e2d587ecaf3b34c11943c5",
	"spmv/1d/stripe=false/g64":    "dcaba3d94e5a291b421ff8e355cf4509a30d0391dab07d5e4823ab23f291f377",
	"spmv/1d/stripe=true/g5":      "ec0c117450b95a923442417ce284a2c3858447f7fa812e9e9bbe4e34ad741692",
	"spmv/1d/stripe=true/g16":     "e8bd800440c71439656a8ce6001412a448151776fa9d13a769d49520efbe4857",
	"spmv/1d/stripe=true/g64":     "4b1a7b6e622949a3b151197d5ce0f64d4dfbcfa23744f8437fff396a986ab334",
	"spmv/2d/stripe=false/g5":     "e233e12b4c067497dfd266c12e048365dc22582ab7d710d9ac433073cb88fbb8",
	"spmv/2d/stripe=false/g16":    "839bbba0f5b105972f9952b6e5f0689fec91a784e1dc7f431e7cbd9b3263857c",
	"spmv/2d/stripe=false/g64":    "61338b0c26fa1186fa98b3c68d891de25eaf838a08015be78340d381cdd05e17",
	"spmv/2d/stripe=true/g5":      "29f65893b5bd621b225f318f8f0e56f4032e1047ee7809fa0ab0ab945134f611",
	"spmv/2d/stripe=true/g16":     "9778c711cb9b5998bb9ef5ffcf79696e926a0f2c8d5d8a0b52fe395dffa8ef3d",
	"spmv/2d/stripe=true/g64":     "ad91287acbf205b3998e1c97ab826759582bb133d37077f34f9bef065be8f3c2",
	"spmv/local/nl4":              "cef52ea52d4c3f7186300bc953b1719ed3ab9cb272d152b2b871527c8265f8ad",
	"spmv/1d/nl4":                 "c02b3ee9977d94141017e94221ece8b5598771ac79e2d587ecaf3b34c11943c5",
	"spmv/2d/nl4":                 "69dc3cc0adfe7c8cfd34c8b49c9a4b2ced860ebf975684f645bd7e3d409cb19e",
	"spmv/2d/stripe=true/nl4":     "509250e65fd73f4294e76ac363d198aadd6aebcae7b3484168bc611911dbec94",
	"spmv/1d/2node":               "acdc6827f0f45093ce8c15d8451df30aaff8a229bc368a3567ec16a0cb61eb91",
	"spmv/1d/faulted":             "d3fa5872130c6df633ce9fd39e21a5cabc10272ba86548800bd919cd96e2599d",
	"csx/hw":                      "1de1d6f240ebc99560e97c8b5e4a1318d977aabc6dec0de46cc00f169f67e580",
	"csx/full1":                   "87b3b29f6f953e4f46c6c6db2623c9d5bcfa29b8194e2e7a56b3e409b6a091c3",
	"gups/seed1":                  "416db11024e9c8b6fbc9bfa7f85e47bc003706d619ab128bdf68b7f54323c0df",
	"gups/seed7":                  "98e0845776037701090655c759a803d10d607563f70ad688f2596c1d4866da04",
	"gups/seed42":                 "94beabd454132ef895aad6cdd2eafb855e6b5fef354d0791e08e2496f78e76b1",
	"gups/threads>updates":        "c50740341201238fd01c6c0f24a6b7b1c2349d5faaed8222069e4f45558193e6",
	"gups/full2":                  "e83b715df9d8357df345e8d55f1fe3c91cd6931c8e36dd9583e30cd6260bc670",
}

func TestKernelGoldenDigests(t *testing.T) {
	for _, c := range goldenCases(t) {
		obs := newDigestObserver()
		res, err := c.run(WithObserver(obs))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.faulted && obs.stalls == 0 {
			t.Errorf("%s: fault plan never stalled a migration", c.name)
		}
		if got, want := obs.sum(res), kernelGolden[c.name]; got != want {
			t.Errorf("%s: digest drifted\n\t%q: %q,", c.name, c.name, got)
		}
	}
}
