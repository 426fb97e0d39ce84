package jobserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"emuchick/internal/chaos"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
)

// quickExperiment is the standing e2e workload: small enough for CI, large
// enough to have several sweep cells to checkpoint.
func quickExperiment() jobspec.Spec {
	return jobspec.Spec{Experiment: "fig4", Scale: jobspec.ScaleQuick, Trials: 1, Parallel: 2}
}

func quickKernel() jobspec.Spec {
	return jobspec.Spec{Kernel: "gups", Params: kernels.Params{Elems: 64, Updates: 256, Threads: 8}}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.Logf = t.Logf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// postJob submits a spec over HTTP and decodes the accepted record.
func postJob(t *testing.T, url string, spec jobspec.Spec) Job {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var rec Job
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// waitDone long-polls /wait until the job is terminal.
func waitDone(t *testing.T, url, id string) Job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id + "/wait?timeout=5s")
		if err != nil {
			t.Fatal(err)
		}
		var rec Job
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.terminal() {
			return rec
		}
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

func getResult(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, b)
	}
	return b
}

// TestServeSubmitPollResultCacheHit is the tentpole e2e: submit over HTTP,
// poll to completion, fetch the result, then resubmit the identical spec and
// require a cache hit — same bytes, no second simulation.
func TestServeSubmitPollResultCacheHit(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, ParallelPerJob: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rec := postJob(t, ts.URL, quickExperiment())
	if rec.State != StateQueued {
		t.Fatalf("accepted state = %s", rec.State)
	}
	done := waitDone(t, ts.URL, rec.ID)
	if done.State != StateDone || done.Source != "simulated" {
		t.Fatalf("job finished %s/%s: %s", done.State, done.Source, done.Error)
	}
	if done.Cells == 0 {
		t.Fatal("no WAL progress reported for a checkpointed job")
	}
	first := getResult(t, ts.URL, rec.ID)
	var res Result
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if res.Key != rec.Key || res.Target != "experiment:fig4" || len(res.Figures) == 0 {
		t.Fatalf("result payload: key=%s target=%s figures=%d", res.Key, res.Target, len(res.Figures))
	}

	// Identical resubmit: served from the content-addressed cache without
	// re-simulating — the job accounting is the proof.
	rec2 := postJob(t, ts.URL, quickExperiment())
	done2 := waitDone(t, ts.URL, rec2.ID)
	if done2.State != StateDone || done2.Source != "cache" {
		t.Fatalf("resubmit finished %s/%s", done2.State, done2.Source)
	}
	if rec2.Key != rec.Key {
		t.Fatalf("identical specs got different keys: %s vs %s", rec.Key, rec2.Key)
	}
	second := getResult(t, ts.URL, rec2.ID)
	if !bytes.Equal(first, second) {
		t.Fatal("cache served different bytes")
	}
	stats := srv.Stats()
	if stats.Simulated != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 simulated + 1 cache hit", stats)
	}

	// A different workload must not hit the cache key.
	other := quickExperiment()
	other.Faults = "chan=4@2"
	if rec3 := postJob(t, ts.URL, other); rec3.Key == rec.Key {
		t.Fatal("different workload shares the cache key")
	}
}

// TestServeKernelJobAndDiscovery covers kernel jobs plus the discovery and
// status endpoints.
func TestServeKernelJobAndDiscovery(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, ep := range []string{"/v1/healthz", "/v1/stats", "/v1/kernels", "/v1/experiments", "/v1/jobs"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", ep, resp.Status, body)
		}
		if ep == "/v1/kernels" && !strings.Contains(string(body), "gups") {
			t.Fatalf("kernel listing missing gups: %s", body)
		}
	}

	rec := postJob(t, ts.URL, quickKernel())
	done := waitDone(t, ts.URL, rec.ID)
	if done.State != StateDone {
		t.Fatalf("kernel job %s: %s", done.State, done.Error)
	}
	var res Result
	if err := json.Unmarshal(getResult(t, ts.URL, rec.ID), &res); err != nil {
		t.Fatal(err)
	}
	if res.Target != "kernel:gups" || res.Measurement == nil || len(res.Measurement.Values) == 0 {
		t.Fatalf("kernel result: %+v", res)
	}

	// A kernel job the watchdog kills fails and leaves its post-mortem in
	// its WAL.
	dead := quickKernel()
	dead.Params.Updates++
	dead.QoS = jobspec.QoS{CellTimeout: jobspec.Duration(time.Nanosecond), Retries: -1}
	rec = postJob(t, ts.URL, dead)
	if done := waitDone(t, ts.URL, rec.ID); done.State != StateFailed {
		t.Fatalf("watchdog-killed kernel job: %s", done.State)
	}
	wal, err := os.ReadFile(srv.store.ckptPath(rec.ID))
	if err != nil || !strings.Contains(string(wal), `"type":"fail"`) || !strings.Contains(string(wal), `"kind":"interrupted"`) {
		t.Fatalf("WAL of the failed kernel job (%v):\n%s", err, wal)
	}

	// Invalid specs are rejected with 400 before touching the queue.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig4","kernel":"gups"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %s", resp.Status)
	}
}

// TestSingleFlightFollowers: two identical specs in flight at once simulate
// once; the follower completes from the leader's result.
func TestSingleFlightFollowers(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, ParallelPerJob: 2})
	defer srv.Close()

	a, err := srv.Submit(quickExperiment())
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(quickExperiment())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		waitTerminal(t, srv, id)
	}
	stats := srv.Stats()
	if stats.Simulated != 1 || stats.CacheHits != 1 || stats.Completed != 2 {
		t.Fatalf("stats = %+v, want 1 simulated, 1 cache hit, 2 completed", stats)
	}
	ra, err := srv.ResultBytes(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := srv.ResultBytes(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatal("follower result differs from leader result")
	}
}

func waitTerminal(t *testing.T, srv *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec, _, ok := srv.Snapshot(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if rec.State.terminal() {
			return rec
		}
		ch, _ := srv.WaitChanged(id, 0)
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
		}
	}
	t.Fatalf("job %s did not finish", id)
	return Job{}
}

// TestCancelQueuedJob: a job canceled while waiting in the queue never runs.
// The single worker is parked inside the first job's cell hook, so the
// second job is deterministically still queued when the DELETE lands.
func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) }) // see wedgeHook
	started := make(chan struct{})
	var once sync.Once
	srv := newTestServer(t, Config{
		Workers:        1,
		ParallelPerJob: 1,
		CellHook: func(id string, cells int) {
			once.Do(func() { close(started) })
			<-block
		},
	})
	defer srv.Close()
	defer release()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first, err := srv.Submit(quickExperiment())
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now wedged mid-sweep on job one
	// A different workload, so it queues behind the first instead of
	// following it.
	second, err := srv.Submit(quickKernel())
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, _ := srv.Get(second.ID); got.State != StateCanceled {
		t.Fatalf("canceled job is %s", got.State)
	}
	release()
	if got := waitTerminal(t, srv, first.ID); got.State != StateDone {
		t.Fatalf("first job ended %s: %s", got.State, got.Error)
	}
	if got := waitTerminal(t, srv, second.ID); got.State != StateCanceled {
		t.Fatalf("canceled job ran anyway: %s", got.State)
	}
	if stats := srv.Stats(); stats.Canceled != 1 || stats.Simulated != 1 {
		t.Fatalf("stats = %+v, want 1 canceled + 1 simulated", stats)
	}
}

// TestKillRestartResumeByteIdentical is the durability contract end to end:
// a server killed mid-sweep resumes the job from its WAL on the next boot,
// and the figures are byte-identical to a run that was never interrupted.
func TestKillRestartResumeByteIdentical(t *testing.T) {
	dataDir := t.TempDir()
	spec := quickExperiment()
	spec.Parallel = 1 // deterministic cell order for the interrupt trigger

	// Uninterrupted reference run in a separate data directory.
	ref := newTestServer(t, Config{Workers: 1})
	refRec, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, ref, refRec.ID); got.State != StateDone {
		t.Fatalf("reference run ended %s: %s", got.State, got.Error)
	}
	want, err := ref.ResultBytes(refRec.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Interrupted run: kill the server once a few cells are in the WAL.
	var (
		once    sync.Once
		stopped = make(chan struct{})
	)
	var srv *Server
	srv = newTestServer(t, Config{
		DataDir: dataDir,
		Workers: 1,
		CellHook: func(id string, cells int) {
			if cells < 3 {
				return
			}
			// Close blocks until workers exit, so it must not run on the
			// worker goroutine delivering this hook.
			once.Do(func() {
				go func() {
					srv.Close()
					close(stopped)
				}()
			})
			// Hold the worker here until shutdown has actually begun:
			// Close cancels the root context first, the hook then returns,
			// and the sweep's next poll point parks the job back to
			// queued. Without this the remaining cells can outrun the
			// asynchronous Close and finish the job before the kill lands.
			<-srv.root.Done()
		},
	})
	rec, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopped:
	case <-time.After(2 * time.Minute):
		t.Fatal("server did not die on the cell trigger")
	}
	if got, _ := srv.Get(rec.ID); got.State != StateQueued {
		t.Fatalf("interrupted job persisted as %s, want queued", got.State)
	}

	// Restart on the same data directory: the job is re-enqueued, resumes
	// from its WAL, and completes byte-identically.
	srv2 := newTestServer(t, Config{DataDir: dataDir, Workers: 1})
	defer srv2.Close()
	if stats := srv2.Stats(); stats.Resumed != 1 {
		t.Fatalf("boot stats = %+v, want 1 resumed", stats)
	}
	done := waitTerminal(t, srv2, rec.ID)
	if done.State != StateDone || done.Source != "resumed" || done.Restarts != 1 {
		t.Fatalf("resumed job: %+v (%s)", done, done.Error)
	}
	got, err := srv2.ResultBytes(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripKey(t, want), stripKey(t, got)) {
		t.Fatalf("resumed result differs from uninterrupted run:\nwant: %s\ngot:  %s", want, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed result not byte-identical")
	}
}

// stripKey re-encodes a result without its key so a mismatch error shows
// whether figures (not just addressing) diverged; byte equality is still
// asserted on the raw payloads.
func stripKey(t *testing.T, data []byte) []byte {
	t.Helper()
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	r.Key = ""
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParseJobID pins the sequence recovery used at boot: only ids of the
// form j%06d parse.
func TestParseJobID(t *testing.T) {
	for _, n := range []int{42, 1000000} {
		if got, ok := parseJobID(fmt.Sprintf("j%06d", n)); !ok || got != n {
			t.Fatalf("parseJobID(j%06d) = %d, %v", n, got, ok)
		}
	}
	for _, id := range []string{"job-42", "j42", "j-00042", "j0000042", "j000042x", "j 000042", ""} {
		if _, ok := parseJobID(id); ok {
			t.Fatalf("malformed id %q parsed", id)
		}
	}
}

// TestStatsSettledAtTerminalState: a job's terminal state and its Stats
// accounting land together. Every job here is distinct, so once n jobs have
// been seen done, at least n simulations must be counted — a waiter woken
// by the state must never read the counters from before it.
func TestStatsSettledAtTerminalState(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	defer srv.Close()
	const jobs = 24
	ids := make([]string, jobs)
	for i := range ids {
		spec := quickKernel()
		spec.Params.Seed = uint64(i + 1)
		rec, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	for i, id := range ids {
		if rec := waitTerminal(t, srv, id); rec.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, rec.State, rec.Error)
		}
		if st := srv.Stats(); st.Simulated < i+1 {
			t.Fatalf("%d jobs seen done but Stats counts %d simulated: %+v", i+1, st.Simulated, st)
		}
	}
}

// TestStorageFailuresAnswer500: a submit whose record the journal refuses
// has still created and enqueued its job, so the client gets 500 with the
// job's id, not 400; a cancel whose record the journal refuses gets 500,
// not 404. Malformed specs stay 400 and unknown ids 404.
func TestStorageFailuresAnswer500(t *testing.T) {
	t.Run("submit", func(t *testing.T) {
		fsys := chaos.New(chaos.Plan{Rules: []chaos.Rule{{Kind: chaos.NoSpace, Every: 1}}}, nil)
		srv := newTestServer(t, Config{FS: fsys})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		spec := quickKernel()
		spec.Checkpoint.Disable = true // no WAL: the job itself needs no storage
		resp := postRaw(t, ts.URL, spec)
		var body struct{ Error, ID string }
		mustDecode(t, []byte(readBody(t, resp)), &body)
		if resp.StatusCode != http.StatusInternalServerError || body.ID == "" || !strings.Contains(body.Error, "no space") {
			t.Fatalf("submit with a full disk: %s %+v, want 500 naming the job", resp.Status, body)
		}
		if got := waitDone(t, ts.URL, body.ID); got.State != StateDone {
			t.Fatalf("job %s ended %s: %s", body.ID, got.State, got.Error)
		}
		getResult(t, ts.URL, body.ID)

		resp = postRaw(t, ts.URL, jobspec.Spec{Experiment: "fig4", Kernel: "gups"})
		if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid spec: %s, want 400", resp.Status)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		// cancelQueued wedges the worker in one job, queues a second and
		// cancels it over HTTP, reporting the storage ops spent before the
		// DELETE and its status.
		cancelQueued := func(plan chaos.Plan) (int, int) {
			started, block := make(chan struct{}), make(chan struct{})
			var once sync.Once
			fsys := chaos.New(plan, nil)
			srv := newTestServer(t, Config{FS: fsys, CellHook: func(string, int) {
				once.Do(func() { close(started) })
				<-block
			}})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer close(block)

			exp := quickExperiment()
			exp.Parallel = 1
			if _, err := srv.Submit(exp); err != nil {
				t.Fatal(err)
			}
			<-started
			queued, err := srv.Submit(quickKernel())
			if err != nil {
				t.Fatal(err)
			}
			ops := fsys.Ops()
			if status := deleteJob(t, ts.URL, "j999999"); status != http.StatusNotFound {
				t.Fatalf("cancel of an unknown job: status %d, want 404", status)
			}
			status := deleteJob(t, ts.URL, queued.ID)
			if got, _ := srv.Get(queued.ID); got.State != StateCanceled {
				t.Fatalf("canceled job is %s", got.State)
			}
			return ops, status
		}
		ops, status := cancelQueued(chaos.Plan{})
		if status != http.StatusOK {
			t.Fatalf("cancel on a healthy disk: status %d", status)
		}
		// The same schedule again, with the cancel's append refused.
		if _, status := cancelQueued(chaos.Plan{Rules: []chaos.Rule{{Kind: chaos.NoSpace, At: ops + 1}}}); status != http.StatusInternalServerError {
			t.Fatalf("cancel whose record cannot persist: status %d, want 500", status)
		}
	})
}

// deleteJob cancels a job over HTTP and returns the status code.
func deleteJob(t *testing.T, url, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
