package jobserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
)

// thirdSpec is a workload distinct from quickExperiment and quickKernel, so
// overload tests can submit three different fingerprints.
func thirdSpec() jobspec.Spec {
	return jobspec.Spec{Kernel: "gups", Params: kernels.Params{Elems: 128, Updates: 256, Threads: 8}}
}

// postRaw submits a spec and returns the raw response without asserting the
// status, for tests that expect shedding.
func postRaw(t *testing.T, url string, spec jobspec.Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wedgeHook returns a CellHook that parks every worker, pinning whatever
// job is running until release is called. release is idempotent: a test
// defers it after `defer srv.Close()`, and deferred calls run last in first
// out, so a test that fails before releasing still frees the worker before
// Close waits for it.
func wedgeHook() (hook func(string, int), release func()) {
	block := make(chan struct{})
	return func(string, int) { <-block }, sync.OnceFunc(func() { close(block) })
}

// TestOverloadShedsWithRetryAfter saturates a depth-1 queue and proves the
// shed contract: 503 + Retry-After on the wire, Stats.Shed accounting, no
// phantom jobs — and full recovery once the backlog drains.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	hook, release := wedgeHook()
	srv := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 3 * time.Second,
		CellHook:   hook,
	})
	defer srv.Close()
	defer release()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Job one wedges the only worker mid-sweep; job two fills the queue.
	// Job two goes in only once the worker has taken job one off the
	// queue: a job turns running after its queue slot is released.
	first := postJob(t, ts.URL, quickExperiment())
	waitFor(t, func() bool {
		got, _ := srv.Get(first.ID)
		return got.State == StateRunning
	})
	second := postJob(t, ts.URL, quickKernel())

	// Queue saturated: a third distinct workload is shed.
	resp := postRaw(t, ts.URL, thirdSpec())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}
	if !strings.Contains(body, "queue full") {
		t.Fatalf("shed body %q does not name the reason", body)
	}
	// An identical resubmit of an in-flight spec is a follower — admitted
	// even at saturation, since it consumes no queue slot.
	follower := postJob(t, ts.URL, quickExperiment())

	stats := srv.Stats()
	if stats.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", stats.Shed)
	}
	if stats.Submitted != 3 {
		t.Fatalf("Submitted = %d, want 3 (the shed request must not be counted)", stats.Submitted)
	}
	if _, ok := srv.Get("j000004"); ok {
		t.Fatal("shed request allocated a job id")
	}

	// Drain the backlog and recover: the shed spec is accepted now.
	release()
	for _, id := range []string{first.ID, second.ID, follower.ID} {
		if got := waitTerminal(t, srv, id); got.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, got.State, got.Error)
		}
	}
	retried := postJob(t, ts.URL, thirdSpec())
	if got := waitDone(t, ts.URL, retried.ID); got.State != StateDone {
		t.Fatalf("post-drain submit ended %s: %s", got.State, got.Error)
	}

	// Exact accounting across the whole episode: 4 accepted (one of them a
	// single-flight cache hit), 3 simulated, 1 shed, nothing lost or
	// double-counted, and the byte budget fully returned.
	stats = srv.Stats()
	if stats.Submitted != 4 || stats.Completed != 4 || stats.Simulated != 3 || stats.CacheHits != 1 || stats.Shed != 1 {
		t.Fatalf("final stats = %+v", stats)
	}
	if stats.Queued != 0 || stats.Running != 0 {
		t.Fatalf("residual queue accounting: %+v", stats)
	}
	if got := srv.InflightBytes(); got != 0 {
		t.Fatalf("InflightBytes = %d after all jobs terminal, want 0", got)
	}
}

// TestOverloadByteBudget: the in-flight byte budget sheds fresh work but
// never followers, and is returned in full when jobs finish.
func TestOverloadByteBudget(t *testing.T) {
	hook, release := wedgeHook()
	srv := newTestServer(t, Config{
		Workers:          1,
		MaxInflightBytes: specCost(quickExperiment()), // room for exactly one leader
		CellHook:         hook,
	})
	defer srv.Close()
	defer release()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	leader := postJob(t, ts.URL, quickExperiment())
	if got := srv.InflightBytes(); got != specCost(quickExperiment()) {
		t.Fatalf("InflightBytes = %d, want the leader's cost %d", got, specCost(quickExperiment()))
	}

	resp := postRaw(t, ts.URL, quickKernel())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "byte budget") {
		t.Fatalf("over-budget submit: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	follower := postJob(t, ts.URL, quickExperiment()) // identical: free

	release()
	for _, id := range []string{leader.ID, follower.ID} {
		if got := waitTerminal(t, srv, id); got.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, got.State, got.Error)
		}
	}
	if got := srv.InflightBytes(); got != 0 {
		t.Fatalf("InflightBytes = %d after completion, want 0", got)
	}
	// Budget free again: the shed spec is admitted.
	retried := postJob(t, ts.URL, quickKernel())
	if got := waitDone(t, ts.URL, retried.ID); got.State != StateDone {
		t.Fatalf("post-release submit ended %s: %s", got.State, got.Error)
	}
	if stats := srv.Stats(); stats.Shed != 1 || stats.Simulated != 2 || stats.CacheHits != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestReadyzFlipsDuringDrain: /readyz answers 200 until BeginDrain, 503
// after; /healthz stays 200 throughout (the process is alive either way);
// and a drained server sheds submits.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	srv := newTestServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}
	for _, path := range []string{"/healthz", "/v1/healthz", "/readyz", "/v1/readyz"} {
		if code, body := status(path); code != http.StatusOK {
			t.Fatalf("%s before drain: %d: %s", path, code, body)
		}
	}

	srv.BeginDrain()
	for _, path := range []string{"/readyz", "/v1/readyz"} {
		code, body := status(path)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
			t.Fatalf("%s during drain: %d: %s", path, code, body)
		}
	}
	if code, _ := status("/healthz"); code != http.StatusOK {
		t.Fatal("liveness flipped during drain")
	}
	resp := postRaw(t, ts.URL, quickKernel())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("submit during drain: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed missing Retry-After")
	}
	if stats := srv.Stats(); stats.Shed != 1 || stats.Submitted != 0 {
		t.Fatalf("stats = %+v, want only Shed touched", stats)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// stepWriter is a hand-cranked ResponseWriter: every Write hands its bytes
// to the test and blocks until the test releases it, so the test controls
// exactly which job versions land between stream records.
type stepWriter struct {
	header http.Header
	lines  chan []byte
	gate   chan struct{}
}

func newStepWriter() *stepWriter {
	return &stepWriter{header: http.Header{}, lines: make(chan []byte), gate: make(chan struct{})}
}

func (w *stepWriter) Header() http.Header { return w.header }
func (w *stepWriter) WriteHeader(int)     {}
func (w *stepWriter) Write(p []byte) (int, error) {
	w.lines <- append([]byte(nil), p...)
	<-w.gate
	return len(p), nil
}

// release lets the blocked Write return.
func (w *stepWriter) release() { w.gate <- struct{}{} }

// TestWatchDroppedAccounting pins the /watch degradation contract: a client
// that drains slowly skips intermediate versions, and the final record's
// watch_dropped counts exactly the updates it never saw — here, three
// version bumps land while the client is stalled, one is delivered, two are
// dropped.
func TestWatchDroppedAccounting(t *testing.T) {
	hook, release := wedgeHook()
	srv := newTestServer(t, Config{Workers: 1, CellHook: hook})
	defer srv.Close()
	defer release()

	rec, err := srv.Submit(quickKernel())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker is wedged in the cell hook: state running,
	// measurement recorded. From here every version bump is the test's.
	waitFor(t, func() bool {
		got, _ := srv.Get(rec.ID)
		return got.State == StateRunning && got.Cells > 0
	})

	w := newStepWriter()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+rec.ID+"/watch", nil)
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(w, req)
		close(done)
	}()

	var first watchRecord
	mustDecode(t, <-w.lines, &first)
	if first.State != StateRunning || first.Dropped != nil {
		t.Fatalf("first record: state=%s dropped=%v", first.State, first.Dropped)
	}
	// While the client is stalled mid-Write, three updates land.
	srv.mu.Lock()
	j := srv.jobs[rec.ID]
	srv.mu.Unlock()
	for i := 0; i < 3; i++ {
		j.set(func(r *Job) { r.Cells++ })
	}
	w.release()

	var second watchRecord
	mustDecode(t, <-w.lines, &second)
	if second.Dropped != nil {
		t.Fatal("non-terminal record carries watch_dropped")
	}
	// Let the job finish while the client stalls on record two; the job's
	// only remaining transition is the terminal one.
	release()
	waitFor(t, func() bool {
		got, _ := srv.Get(rec.ID)
		return got.State.terminal()
	})
	w.release()

	var final watchRecord
	mustDecode(t, <-w.lines, &final)
	w.release()
	<-done
	if final.State != StateDone {
		t.Fatalf("final record state = %s: %s", final.State, final.Error)
	}
	if final.Dropped == nil || *final.Dropped != 2 {
		t.Fatalf("watch_dropped = %v, want 2 (three bumps, one delivered)", final.Dropped)
	}
}

// deadlineWriter refuses every write with the deadline error, standing in
// for a client whose connection never drains.
type deadlineWriter struct{ header http.Header }

func (w *deadlineWriter) Header() http.Header { return w.header }
func (w *deadlineWriter) WriteHeader(int)     {}
func (w *deadlineWriter) Write(p []byte) (int, error) {
	return 0, os.ErrDeadlineExceeded
}

// TestWatchStalledClientCounted: a stream whose writes hit the deadline is
// closed and counted in Stats.WatchTimeouts rather than pinning the handler.
func TestWatchStalledClientCounted(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, WatchWriteTimeout: 50 * time.Millisecond})
	defer srv.Close()
	rec, err := srv.Submit(quickKernel())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, srv, rec.ID)

	finished := make(chan struct{})
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+rec.ID+"/watch", nil)
		srv.Handler().ServeHTTP(&deadlineWriter{header: http.Header{}}, req)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled watch pinned its handler")
	}
	if stats := srv.Stats(); stats.WatchTimeouts != 1 {
		t.Fatalf("WatchTimeouts = %d, want 1", stats.WatchTimeouts)
	}
}

// waitFor polls cond to true within the suite deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func mustDecode(t *testing.T, line []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(bytes.TrimSpace(line), v); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
}
