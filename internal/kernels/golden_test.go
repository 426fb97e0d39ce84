package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"emuchick/internal/cilk"
	"emuchick/internal/fault"
	"emuchick/internal/machine"
	"emuchick/internal/metrics"
	"emuchick/internal/trace"
	"emuchick/internal/workload"
)

// Golden digests for every kernel. Each case runs one small configuration
// with an observer attached and hashes every machine event — (Time, End,
// Kind, Nodelet, Target, Addr) — every gauge sample, any kernel-specific
// statistics (ChaseStats, the ping-pong metrics), and the reported
// metrics.Result. The digests were recorded from the goroutine
// implementations these kernels used to have, so the continuation engine is
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

// sum closes the digest over the run's kernel statistics, if any, and its
// result.
func (d *digestObserver) sum(res metrics.Result, stats []int64) string {
	if len(stats) > 0 {
		d.put(append([]int64{'X'}, stats...)...)
	}
	d.put('R', res.Bytes, int64(res.Elapsed))
	return hex.EncodeToString(d.h.Sum(nil))
}

type goldenCase struct {
	name    string
	faulted bool // the case must actually hit its fault plan
	// run returns the kernel's result and its statistics beyond the result.
	run func(opts ...RunOption) (metrics.Result, []int64, error)
}

// result adapts a kernel that reports only a metrics.Result.
func result(res metrics.Result, err error) (metrics.Result, []int64, error) { return res, nil, err }

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	plan, err := fault.Parse("chan=4@2,migstall=10us/100us", 7)
	if err != nil {
		t.Fatal(err)
	}

	stream := func(name string, cfg StreamConfig) {
		cases = append(cases, goldenCase{name: name, run: func(opts ...RunOption) (metrics.Result, []int64, error) {
			return result(Stream(machine.HardwareChick(), cfg, opts...))
		}})
	}
	for _, strat := range cilk.Strategies {
		for _, nodelets := range []int{1, 8} {
			stream(fmt.Sprintf("stream/add/%v/nl%d", strat, nodelets),
				StreamConfig{ElemsPerNodelet: 64, Nodelets: nodelets, Threads: 13, Strategy: strat})
		}
	}
	for _, k := range StreamKernels {
		stream(fmt.Sprintf("stream/%v/nl8", k),
			StreamConfig{Kernel: k, ElemsPerNodelet: 32, Nodelets: 8, Threads: 16, Strategy: cilk.RecursiveRemoteSpawn})
	}

	chase := func(name string, mcfg machine.Config, cfg ChaseConfig, extra ...RunOption) {
		cases = append(cases, goldenCase{name: name, faulted: len(extra) > 0,
			run: func(opts ...RunOption) (metrics.Result, []int64, error) {
				res, st, err := PointerChaseWithStats(mcfg, cfg, append(opts, extra...)...)
				return res, []int64{int64(st.Migrations), st.MigrationBytes}, err
			}})
	}
	for _, mode := range []workload.ShuffleMode{workload.NoShuffle, workload.BlockShuffle, workload.FullBlockShuffle} {
		chase(fmt.Sprintf("chase/%v", mode), machine.HardwareChick(),
			ChaseConfig{Elements: 256, BlockSize: 16, Mode: mode, Seed: 7, Threads: 9, Nodelets: 8})
	}
	chase("chase/2node", machine.HardwareChickNodes(2),
		ChaseConfig{Elements: 512, BlockSize: 16, Mode: workload.BlockShuffle, Seed: 7, Threads: 12, Nodelets: 16})
	chase("chase/faulted", machine.HardwareChick(),
		ChaseConfig{Elements: 4096, BlockSize: 16, Mode: workload.BlockShuffle, Seed: 7, Threads: 9, Nodelets: 8},
		WithFaultPlan(plan))

	ping := func(name string, mcfg machine.Config, cfg PingPongConfig) {
		cases = append(cases, goldenCase{name: name, run: func(opts ...RunOption) (metrics.Result, []int64, error) {
			out, err := PingPong(mcfg, cfg, opts...)
			return metrics.Result{Elapsed: out.Elapsed},
				[]int64{int64(out.Migrations), int64(out.MeanLatency), int64(math.Float64bits(out.MigrationsPerSec))}, err
		}})
	}
	for _, threads := range []int{1, 4, 16} {
		ping(fmt.Sprintf("pingpong/t%d", threads), machine.SimMatched(),
			PingPongConfig{Threads: threads, Iterations: 25, NodeletA: 0, NodeletB: 5})
	}
	ping("pingpong/2node", machine.HardwareChickNodes(2),
		PingPongConfig{Threads: 4, Iterations: 25, NodeletA: 1, NodeletB: 12})

	spmv := func(name string, mcfg machine.Config, cfg SpMVConfig, extra ...RunOption) {
		cases = append(cases, goldenCase{name: name, faulted: len(extra) > 0,
			run: func(opts ...RunOption) (metrics.Result, []int64, error) {
				return result(SpMV(mcfg, cfg, append(opts, extra...)...))
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
	spmv("spmv/1d/faulted", machine.HardwareChick(), SpMVConfig{GridN: 10, Layout: SpMV1D, GrainNNZ: 16},
		WithFaultPlan(plan))

	csx := func(name string, mcfg machine.Config) {
		cases = append(cases, goldenCase{name: name, run: func(opts ...RunOption) (metrics.Result, []int64, error) {
			return result(SpMVCSX(mcfg, SpMVCSXConfig{GridN: 12, GrainNNZ: 16}, opts...))
		}})
	}
	csx("csx/hw", machine.HardwareChick())
	csx("csx/full1", machine.FullSpeed(1))

	gups := func(name string, mcfg machine.Config, cfg GUPSConfig) {
		cases = append(cases, goldenCase{name: name, run: func(opts ...RunOption) (metrics.Result, []int64, error) {
			return result(GUPS(mcfg, cfg, opts...))
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
	"stream/add/serial_spawn/nl1":           "f685024cd7907d1ca55bf484f972ad872cfd176619e031e9d4063075ee91c244",
	"stream/add/serial_spawn/nl8":           "25eff9f4a4c70d32d448b55bbe9a075126ea15b6b60dc054e6eac17568cedc3a",
	"stream/add/recursive_spawn/nl1":        "beab93fb61c795b3cf04cd589c1768ec046becbd72846e54f592a16a62834269",
	"stream/add/recursive_spawn/nl8":        "4600b55e2876f3cc8104712b1d688bf2514cde69f78b01c26cf7505bad45ea90",
	"stream/add/serial_remote_spawn/nl1":    "1062423942c0c46e4c091db22d82b4e39293d3b5ee51cda1b659d1e2a26a4cdf",
	"stream/add/serial_remote_spawn/nl8":    "1415f88d7e5f0b24d78476945200a3d2b5f7075de0ef6500555b6318252f98ae",
	"stream/add/recursive_remote_spawn/nl1": "e72cf3cf7f05599efd65a10bb3da83eae2bc06e91db996b04c2dc7f819991318",
	"stream/add/recursive_remote_spawn/nl8": "f35019389f3de474375c468d363e5f4f987bea57f957cd98ad98bf730485a4cd",
	"stream/copy/nl8":                       "7f090fe90e55e06ea7422e30c8fd46f5c652cdde0c4d888634a24f64232483fd",
	"stream/scale/nl8":                      "7f090fe90e55e06ea7422e30c8fd46f5c652cdde0c4d888634a24f64232483fd",
	"stream/add/nl8":                        "24ddea1efafb065174f6c87581db1b1e52088231145bed891151e210ab2fd5d7",
	"stream/triad/nl8":                      "24ddea1efafb065174f6c87581db1b1e52088231145bed891151e210ab2fd5d7",
	"chase/no_shuffle":                      "30c5e1fcd6c61c769548a8329950e03cb4ee190bd17ffca6c350b9416bdae816",
	"chase/block_shuffle":                   "7942e0f7dec20df801343365a865128ae44c812e8e8802c6e61bafdd7a22a15c",
	"chase/full_block_shuffle":              "2fb9b87942f816947ce7b29bcafb03a5342cc656e4221bd9b273635a13bb13bc",
	"chase/2node":                           "02f04c260751c2a9a31a1629953b1be55c9afbebd06d391f16712aca92691085",
	"chase/faulted":                         "8131136a2d3bafb4ab968480ce33375f3b450547ed5b0054ceeeb64647a012fb",
	"pingpong/t1":                           "88b3c16ccc1e9cb1f33c9264392adb21be8c73df6f2b889bfbdf23835ea33916",
	"pingpong/t4":                           "21620b8c27d303e4221a672f4cf7874c4c19dd65aa6ab396b399e25a773c921f",
	"pingpong/t16":                          "d8990d7ec523254f61133b71930f29aad591c51f2ea836dc0314b0fbab410013",
	"pingpong/2node":                        "01ba9ea45ddf74b580796868e8e09c26a7f7d00dda87e95720bee013311eb509",
	"spmv/local/stripe=false/g5":            "e7626f323bce0f733f7e3e8ac844e1773f7f5c7a15407e5ea28bb6ad4a9928f5",
	"spmv/local/stripe=false/g16":           "cef52ea52d4c3f7186300bc953b1719ed3ab9cb272d152b2b871527c8265f8ad",
	"spmv/local/stripe=false/g64":           "e835bfd8fbbd00f5980c75201d19e7a4fd31f6634ffd69fd85b090dd0c7b56cf",
	"spmv/local/stripe=true/g5":             "e7626f323bce0f733f7e3e8ac844e1773f7f5c7a15407e5ea28bb6ad4a9928f5",
	"spmv/local/stripe=true/g16":            "cef52ea52d4c3f7186300bc953b1719ed3ab9cb272d152b2b871527c8265f8ad",
	"spmv/local/stripe=true/g64":            "e835bfd8fbbd00f5980c75201d19e7a4fd31f6634ffd69fd85b090dd0c7b56cf",
	"spmv/1d/stripe=false/g5":               "0c8e27d593d4efa8ebced06bc22c451162b904b171e311a5d44bcd2c683eff81",
	"spmv/1d/stripe=false/g16":              "c02b3ee9977d94141017e94221ece8b5598771ac79e2d587ecaf3b34c11943c5",
	"spmv/1d/stripe=false/g64":              "dcaba3d94e5a291b421ff8e355cf4509a30d0391dab07d5e4823ab23f291f377",
	"spmv/1d/stripe=true/g5":                "ec0c117450b95a923442417ce284a2c3858447f7fa812e9e9bbe4e34ad741692",
	"spmv/1d/stripe=true/g16":               "e8bd800440c71439656a8ce6001412a448151776fa9d13a769d49520efbe4857",
	"spmv/1d/stripe=true/g64":               "4b1a7b6e622949a3b151197d5ce0f64d4dfbcfa23744f8437fff396a986ab334",
	"spmv/2d/stripe=false/g5":               "e233e12b4c067497dfd266c12e048365dc22582ab7d710d9ac433073cb88fbb8",
	"spmv/2d/stripe=false/g16":              "839bbba0f5b105972f9952b6e5f0689fec91a784e1dc7f431e7cbd9b3263857c",
	"spmv/2d/stripe=false/g64":              "61338b0c26fa1186fa98b3c68d891de25eaf838a08015be78340d381cdd05e17",
	"spmv/2d/stripe=true/g5":                "29f65893b5bd621b225f318f8f0e56f4032e1047ee7809fa0ab0ab945134f611",
	"spmv/2d/stripe=true/g16":               "9778c711cb9b5998bb9ef5ffcf79696e926a0f2c8d5d8a0b52fe395dffa8ef3d",
	"spmv/2d/stripe=true/g64":               "ad91287acbf205b3998e1c97ab826759582bb133d37077f34f9bef065be8f3c2",
	"spmv/local/nl4":                        "cef52ea52d4c3f7186300bc953b1719ed3ab9cb272d152b2b871527c8265f8ad",
	"spmv/1d/nl4":                           "c02b3ee9977d94141017e94221ece8b5598771ac79e2d587ecaf3b34c11943c5",
	"spmv/2d/nl4":                           "69dc3cc0adfe7c8cfd34c8b49c9a4b2ced860ebf975684f645bd7e3d409cb19e",
	"spmv/2d/stripe=true/nl4":               "509250e65fd73f4294e76ac363d198aadd6aebcae7b3484168bc611911dbec94",
	"spmv/1d/2node":                         "acdc6827f0f45093ce8c15d8451df30aaff8a229bc368a3567ec16a0cb61eb91",
	"spmv/1d/faulted":                       "d3fa5872130c6df633ce9fd39e21a5cabc10272ba86548800bd919cd96e2599d",
	"csx/hw":                                "1de1d6f240ebc99560e97c8b5e4a1318d977aabc6dec0de46cc00f169f67e580",
	"csx/full1":                             "87b3b29f6f953e4f46c6c6db2623c9d5bcfa29b8194e2e7a56b3e409b6a091c3",
	"gups/seed1":                            "416db11024e9c8b6fbc9bfa7f85e47bc003706d619ab128bdf68b7f54323c0df",
	"gups/seed7":                            "98e0845776037701090655c759a803d10d607563f70ad688f2596c1d4866da04",
	"gups/seed42":                           "94beabd454132ef895aad6cdd2eafb855e6b5fef354d0791e08e2496f78e76b1",
	"gups/threads>updates":                  "c50740341201238fd01c6c0f24a6b7b1c2349d5faaed8222069e4f45558193e6",
	"gups/full2":                            "e83b715df9d8357df345e8d55f1fe3c91cd6931c8e36dd9583e30cd6260bc670",
}

func TestKernelGoldenDigests(t *testing.T) {
	for _, c := range goldenCases(t) {
		obs := newDigestObserver()
		res, stats, err := c.run(WithObserver(obs))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.faulted && obs.stalls == 0 {
			t.Errorf("%s: fault plan never stalled a migration", c.name)
		}
		if got, want := obs.sum(res, stats), kernelGolden[c.name]; got != want {
			t.Errorf("%s: digest drifted\n\t%q: %q,", c.name, c.name, got)
		}
	}
}
