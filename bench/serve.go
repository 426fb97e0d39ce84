package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/jobserver"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
)

// serve-mix shape. The request count per pass is fixed rather than the
// duration because per-request cost may grow with the number of jobs the
// server holds; every pass boots a fresh server on an empty data directory
// and replays the identical request list, so passes are replicates.
const (
	clients     = 2    // closed-loop clients, one connection each
	workers     = 2    // jobserver.Config.Workers
	hotSpecs    = 16   // kernel specs repeated as cache hits
	warmupReqs  = 50   // untimed, on specs disjoint from the timed list
	resimSample = 64   // distinct fingerprints re-simulated after the window
	serveReqs   = 3600 // timed requests per pass (full size)
	tinyReqs    = 60
)

// kernelMenu and experimentMenu are the shapes of serve-mix's jobs: kernel
// specs that simulate in a few milliseconds, and quick experiments under a
// channel fault plan. Fresh specs cycle through the menus, so every seed
// asks for the same amount of work.
var (
	kernelMenu = []jobspec.Spec{
		{Kernel: "chase", Params: kernels.Params{Elems: 1024, Block: 1, Threads: 16}},
		{Kernel: "chase", Params: kernels.Params{Elems: 2048, Block: 8, Threads: 32}},
		{Kernel: "chase", Params: kernels.Params{Elems: 1024, Block: 64, Threads: 64}},
		{Kernel: "stream", Params: kernels.Params{Elems: 256, Threads: 16}},
		{Kernel: "stream", Params: kernels.Params{Elems: 512, Threads: 64}},
		{Kernel: "pingpong", Params: kernels.Params{Iters: 20, Threads: 8}},
		{Kernel: "pingpong", Params: kernels.Params{Iters: 40, Threads: 16}},
		{Kernel: "gups", Params: kernels.Params{Elems: 4096, Updates: 1024, Threads: 64}},
		{Kernel: "gups", Params: kernels.Params{Elems: 4096, Updates: 2048, Threads: 64}},
		{Kernel: "spmv", Params: kernels.Params{GridN: 8, Layout: "local", Grain: 16}},
		{Kernel: "spmv", Params: kernels.Params{GridN: 16, Layout: "1d", Grain: 16}},
		{Kernel: "spmv", Params: kernels.Params{GridN: 16, Layout: "2d", Grain: 16}},
	}
	// warmupMenu are the warm-up's jobs: the same kernels at sizes that
	// simulate for 10-20 ms, so set-up time is spent simulating rather
	// than waiting on fsync, whose latency on a shared disk swings from run
	// to run.
	warmupMenu = []jobspec.Spec{
		{Kernel: "chase", Params: kernels.Params{Elems: 32768, Block: 8, Threads: 64}},
		{Kernel: "stream", Params: kernels.Params{Elems: 4096, Threads: 64}},
		{Kernel: "pingpong", Params: kernels.Params{Iters: 4000, Threads: 16}},
		{Kernel: "gups", Params: kernels.Params{Elems: 4096, Updates: 16384, Threads: 64}},
		{Kernel: "spmv", Params: kernels.Params{GridN: 32, Layout: "2d", Grain: 16}},
	}
	experimentMenu = func() []jobspec.Spec {
		var out []jobspec.Spec
		for _, id := range []string{"fig4", "fig5", "migration-anchors", "scaling-nodes"} {
			for _, plan := range []string{"chan=2@1", "chan=3@2", "chan=4@4"} {
				out = append(out, jobspec.Spec{Experiment: id, Scale: jobspec.ScaleQuick, Faults: plan})
			}
		}
		return out
	}()
)

// serveMix is the seeded request mix: the timed list and the warm-up list.
type serveMix struct {
	reqs, warm []jobspec.Spec
}

// newServeMix builds n timed requests: 70% repeats of hotSpecs kernel
// specs (cache hits after their first run), 25% fresh kernel specs, and 5%
// fresh quick experiments with a seeded fault plan, in seeded order. The
// seed also picks every spec's seed, which is part of its fingerprint: each
// fresh spec is a cache miss, and no two seeds share a spec.
func newServeMix(seed uint64, n, warm int) serveMix {
	rng := rand.New(rand.NewPCG(seed, 0x73657276652d6d69))
	base := rng.Uint64N(1 << 40)
	uniq := uint64(0)
	kernel := func() jobspec.Spec {
		s := kernelMenu[int(uniq)%len(kernelMenu)]
		uniq++
		s.Params.Seed = base + uniq
		return s
	}
	hot := make([]jobspec.Spec, hotSpecs)
	for i := range hot {
		hot[i] = kernel()
	}
	var m serveMix
	nHot, nKernel := n*70/100, n*25/100
	for i := 0; i < n; i++ {
		switch {
		case i < nHot:
			m.reqs = append(m.reqs, hot[i%len(hot)])
		case i < nHot+nKernel:
			m.reqs = append(m.reqs, kernel())
		default:
			s := experimentMenu[i%len(experimentMenu)]
			uniq++
			s.FaultSeed = base + uniq
			m.reqs = append(m.reqs, s)
		}
	}
	rng.Shuffle(len(m.reqs), func(i, j int) { m.reqs[i], m.reqs[j] = m.reqs[j], m.reqs[i] })
	for i := 0; i < warm; i++ {
		s := warmupMenu[i%len(warmupMenu)]
		uniq++
		s.Params.Seed = base + uniq
		m.warm = append(m.warm, s)
	}
	return m
}

// reqResult is one timed request.
type reqResult struct {
	ok                bool
	hit               bool // served from the cache (or by following an identical job)
	started           bool // the job went through the queue
	total             time.Duration
	submit, result    time.Duration
	waits             int
	queueWait, runFor time.Duration
}

// serveStats accumulates what traced passes observed: per-request timings,
// the server's accounting, and the storage layer.
type serveStats struct {
	passes    int
	wall      time.Duration
	reqs      []reqResult
	simulated int
	cacheHits int
	shed      int
	fs        fsStats
}

// servedKey remembers the first result bytes served for a content key.
type servedKey struct {
	spec   jobspec.Spec
	digest string
}

// serveRunner runs serve-mix.
type serveRunner struct {
	mix  serveMix
	seed uint64
	chk  *checker
	dir  string

	// transport, when set, carries the clients' requests (tests plant
	// corrupted responses through it).
	transport http.RoundTripper

	mu     sync.Mutex
	served map[string]servedKey
	boots  int
	traced *serveStats
}

func newServeRunner(seed uint64, sz size, chk *checker, dir string) *serveRunner {
	mix := newServeMix(seed, serveReqs, warmupReqs)
	if sz == tiny {
		mix = newServeMix(seed, tinyReqs, 4)
	}
	return &serveRunner{mix: mix, seed: seed, chk: chk, dir: dir, served: map[string]servedKey{}}
}

func (d *serveRunner) specs() []jobspec.Spec {
	return append(append([]jobspec.Spec(nil), d.mix.reqs...), d.mix.warm...)
}

func (d *serveRunner) serverLayers() *serveStats { return d.traced }

// servePass is one booted server plus its clients.
type servePass struct {
	d        *serveRunner
	dir      string
	srv      *jobserver.Server
	hs       *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	fs       *timingFS
}

// setup boots a fresh server on an empty data directory behind a loopback
// listener and sends the warm-up requests.
func (d *serveRunner) setup(tr *tracer, parent int) (pass, error) {
	d.mu.Lock()
	d.boots++
	dir := filepath.Join(d.dir, fmt.Sprintf("serve-%d", d.boots))
	d.mu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfg := jobserver.Config{DataDir: dir, Workers: workers}
	var tfs *timingFS
	if tr != nil {
		tfs = newTimingFS(tr, parent)
		cfg.FS = tfs
	}
	srv, err := jobserver.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &servePass{d: d, dir: dir, srv: srv, fs: tfs, serveErr: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	p.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { p.serveErr <- p.hs.Serve(ln) }()
	tp := d.transport
	if tp == nil {
		tp = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	}
	p.client = &http.Client{Transport: tp, Timeout: 60 * time.Second}
	p.drive(d.mix.warm, tr, parent, nil)
	return p, nil
}

// run sends the timed request list from the closed-loop clients.
func (p *servePass) run(tr *tracer, parent int) error {
	var before fsStats
	if p.fs != nil {
		before = p.fs.stats()
	}
	start := time.Now()
	results := make([]reqResult, len(p.d.mix.reqs))
	p.drive(p.d.mix.reqs, tr, parent, results)
	wall := time.Since(start)
	if tr == nil {
		return nil
	}
	var st jobserver.Stats
	if status, err := p.do(http.MethodGet, "/v1/stats", nil, &st); err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: status %d: %v", status, err)
	}
	after := p.fs.stats()
	p.d.mu.Lock()
	defer p.d.mu.Unlock()
	if p.d.traced == nil {
		p.d.traced = &serveStats{}
	}
	s := p.d.traced
	s.passes++
	s.wall += wall
	s.reqs = append(s.reqs, results...)
	s.simulated += st.Simulated
	s.cacheHits += st.CacheHits
	s.shed += st.Shed
	s.fs.syncMs = append(s.fs.syncMs, after.syncMs[len(before.syncMs):]...)
	s.fs.renames += after.renames - before.renames
	s.fs.written += after.written - before.written
	s.fs.busy += after.busy - before.busy
	return nil
}

// drive sends specs from the clients, client c taking every clients-th
// request; results, when non-nil, receives each request's timing.
func (p *servePass) drive(specs []jobspec.Spec, tr *tracer, parent int, results []reqResult) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(specs); i += clients {
				r := p.request(specs[i], tr, parent, trackWorker+c)
				if results != nil {
					results[i] = r
				}
			}
		}(c)
	}
	wg.Wait()
}

// request is one closed-loop job: POST /v1/jobs, long-poll /wait until the
// job is terminal, GET /result. The result bytes must equal the first bytes
// served for the same content key.
func (p *servePass) request(spec jobspec.Spec, tr *tracer, parent, track int) reqResult {
	var r reqResult
	op := int(opSeq.Add(1))
	target := jobserver.Job{Spec: spec}.Target()
	sp := tr.begin("request", target, parent, op, track)
	defer sp.end()
	start := time.Now()
	fail := func(format string, args ...any) reqResult {
		p.d.chk.fail(fmt.Sprintf("%s: ", target) + fmt.Sprintf(format, args...))
		r.ok = false
		r.total = time.Since(start)
		return r
	}

	body, err := json.Marshal(spec)
	if err != nil {
		return fail("%v", err)
	}
	var job jobserver.Job
	t0 := time.Now()
	hsp := tr.begin("http", "POST /v1/jobs", sp.ID(), op, track)
	status, err := p.do(http.MethodPost, "/v1/jobs", body, &job)
	hsp.end()
	r.submit = time.Since(t0)
	if err != nil {
		return fail("submit: %v", err)
	}
	if status != http.StatusAccepted {
		return fail("submit: status %d", status)
	}
	for !terminal(job.State) {
		wsp := tr.begin("http", "GET /wait", sp.ID(), op, track)
		status, err = p.do(http.MethodGet, "/v1/jobs/"+job.ID+"/wait", nil, &job)
		wsp.end()
		r.waits++
		if err != nil || status != http.StatusOK {
			return fail("wait %s: status %d: %v", job.ID, status, err)
		}
	}
	if job.State != jobserver.StateDone {
		return fail("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	t1 := time.Now()
	rsp := tr.begin("http", "GET /result", sp.ID(), op, track)
	res, status, err := p.get("/v1/jobs/" + job.ID + "/result")
	rsp.end()
	r.result = time.Since(t1)
	r.total = time.Since(start)
	if err != nil || status != http.StatusOK {
		return fail("result %s: status %d: %v", job.ID, status, err)
	}
	if !p.d.recordServed(job.Key, spec, res) {
		return fail("result %s: bytes differ from the first served for key %s", job.ID, job.Key)
	}
	r.ok = true
	r.hit = job.Source == "cache"
	if job.StartedAt != nil && job.FinishedAt != nil {
		r.started = true
		r.queueWait = job.StartedAt.Sub(job.SubmittedAt)
		r.runFor = job.FinishedAt.Sub(*job.StartedAt)
	}
	return r
}

func terminal(s jobserver.State) bool {
	return s == jobserver.StateDone || s == jobserver.StateFailed || s == jobserver.StateCanceled
}

// recordServed checks res against the first bytes served for key (storing
// them when key is new) and counts the request.
func (d *serveRunner) recordServed(key string, spec jobspec.Spec, res []byte) bool {
	dg := digest(res)
	d.mu.Lock()
	first, seen := d.served[key]
	if !seen {
		d.served[key] = servedKey{spec: spec, digest: dg}
	}
	d.mu.Unlock()
	if seen && first.digest != dg {
		return false
	}
	d.chk.record(nil, nil)
	return true
}

func (p *servePass) do(method, path string, body []byte, into any) (int, error) {
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(b, into)
}

func (p *servePass) get(path string) ([]byte, int, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// close shuts the listener and the server down and removes the data
// directory.
func (p *servePass) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "emuperf: http shutdown:", err)
	}
	<-p.serveErr
	p.client.CloseIdleConnections()
	p.srv.Close()
	if err := os.RemoveAll(p.dir); err != nil {
		fmt.Fprintln(os.Stderr, "emuperf:", err)
	}
}

// verify re-simulates a seeded sample of distinct served fingerprints
// in-process and compares them with the bytes the server returned.
func (d *serveRunner) verify(tr *tracer, parent int) {
	d.mu.Lock()
	served := make(map[string]servedKey, len(d.served))
	keys := make([]string, 0, len(d.served))
	for k, sk := range d.served {
		served[k] = sk
		keys = append(keys, k)
	}
	d.mu.Unlock()
	sort.Strings(keys)
	rng := rand.New(rand.NewPCG(d.seed, 0x7265736963))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > resimSample {
		keys = keys[:resimSample]
	}
	for _, k := range keys {
		sk := served[k]
		sp := tr.begin("verify", "resimulate "+k, parent, int(opSeq.Add(1)), trackMain)
		b, err := resimulate(k, sk.spec)
		sp.end()
		switch {
		case err != nil:
			d.chk.fail(fmt.Sprintf("resimulate %s: %v", k, err))
		case digest(b) != sk.digest:
			d.chk.fail(fmt.Sprintf("resimulate %s: bytes differ from those served", k))
		default:
			d.chk.record(nil, nil)
		}
	}
}

// resimulate reproduces the result payload the server caches for spec —
// the jobserver.Result schema over report.FigureJSON figures or the kernel
// measurement — by calling the experiment or kernel directly.
func resimulate(key string, spec jobspec.Spec) ([]byte, error) {
	out := jobserver.Result{Key: key, Target: jobserver.Job{Spec: spec}.Target()}
	if spec.Experiment != "" {
		e, err := experiments.ByID(spec.Experiment)
		if err != nil {
			return nil, err
		}
		opts, err := spec.Options()
		if err != nil {
			return nil, err
		}
		figs, err := e.Run(opts...)
		if err != nil {
			return nil, err
		}
		enc, err := figureBytes(figs)
		if err != nil {
			return nil, err
		}
		for _, b := range enc {
			out.Figures = append(out.Figures, b)
		}
	} else {
		m, _, err := jobspec.RunKernel(context.Background(), spec, nil)
		if err != nil {
			return nil, err
		}
		out.Measurement = &m
	}
	return json.Marshal(out)
}
