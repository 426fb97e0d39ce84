package jobserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"emuchick/internal/chaos"
	"emuchick/internal/jobspec"
)

// journalLine frames one journal line by hand: the store's format, spelled out
// independently of the code that writes it.
func journalLine(kind, name, payload string) string {
	return kind + " " + name + " " + payload + "\n"
}

// plantJournal writes raw journal bytes into a fresh data directory before
// the first boot.
func plantJournal(t *testing.T, data string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func readJournal(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// logSink collects a server's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) contains(s string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.lines {
		if strings.Contains(ln, s) {
			return true
		}
	}
	return false
}

// TestStoreRefusesCorruptJobRecords: damaged job records — unparsable JSON,
// or a record naming a different job than its frame — load as refused
// failed jobs. The last record per job wins, lines that name nothing are
// skipped and counted in the boot log line, and a torn tail is dropped and
// then truncated away by the next append. The rest of the store boots and
// serves normally; one damaged line never takes the server down.
func TestStoreRefusesCorruptJobRecords(t *testing.T) {
	goodSpec := quickKernel()
	good := Job{
		ID: "j000003", Key: goodSpec.Fingerprint(), Spec: goodSpec,
		State: StateDone, Source: "simulated", SubmittedAt: time.Now().UTC(),
	}
	goodJSON := mustMarshal(t, good)
	queued := good
	queued.ID, queued.State, queued.Source = "j000001", StateQueued, ""
	superseded := good
	superseded.ID = "j000005"
	cases := []struct {
		name, id, data string
		wantErr        string
	}{
		{"truncated-json", "j000001", `{"id":"j000001","state":"run`, "unparsable record"},
		{"binary-garbage", "j000002", "\x00\x7fELF not json", "unparsable record"},
		{"foreign-id", "j000004", strings.Replace(goodJSON, "j000003", "j000099", 1), `names job "j000099"`},
	}

	// j000001's good record is overwritten by its damaged successor, and
	// j000005's damaged record by a good one: the last record wins.
	journal := journalLine("job", queued.ID, mustMarshal(t, queued)) +
		journalLine("job", good.ID, goodJSON) +
		journalLine("job", superseded.ID, "{torn") +
		"no frame at all\n" +
		journalLine("job", "not-an-id", goodJSON)
	for _, tc := range cases {
		journal += journalLine("job", tc.id, tc.data)
	}
	journal += journalLine("job", superseded.ID, mustMarshal(t, superseded))
	// The torn tail is longer than every line this test appends, so a tail
	// that is not cut would outlive them.
	torn := good
	torn.ID, torn.Error = "j000006", strings.Repeat("x", 8<<10)
	journal += strings.TrimSuffix(journalLine("job", torn.ID, mustMarshal(t, torn)), "\n")
	dir := plantJournal(t, journal)

	var logs logSink
	srv, err := New(Config{DataDir: dir, Workers: 1, Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, ok := srv.Get(tc.id)
			if !ok {
				t.Fatalf("corrupt record %s not loaded at all", tc.id)
			}
			if rec.State != StateFailed {
				t.Fatalf("corrupt record loaded as %s, want failed", rec.State)
			}
			if !strings.HasPrefix(rec.Error, "refused: corrupt job record") || !strings.Contains(rec.Error, tc.wantErr) {
				t.Fatalf("refusal error %q does not name the damage (%q)", rec.Error, tc.wantErr)
			}
		})
	}
	// The intact neighbors are untouched and the server still takes work.
	for _, id := range []string{good.ID, superseded.ID} {
		if rec, ok := srv.Get(id); !ok || rec.State != StateDone {
			t.Fatalf("intact record %s alongside corrupt ones: %+v, %v", id, rec, ok)
		}
	}
	if _, ok := srv.Get(torn.ID); ok {
		t.Fatal("an unterminated tail loaded as a job")
	}
	if !logs.contains("2 journal lines skipped") {
		t.Fatalf("boot log does not count the two unnamed lines: %q", logs.lines)
	}
	sub, err := srv.Submit(quickKernel())
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "j000006" {
		t.Fatalf("new job took ID %s, want j000006 (past every id the journal names)", sub.ID)
	}
	if got := waitTerminal(t, srv, sub.ID); got.State != StateDone {
		t.Fatalf("submit after corrupt boot ended %s: %s", got.State, got.Error)
	}
	// The torn tail was cut before the first append, so no line splices it.
	srv.Close()
	after := string(readJournal(t, dir))
	if complete := journal[:strings.LastIndexByte(journal, '\n')+1]; !strings.HasPrefix(after, complete) {
		t.Fatal("appends rewrote the journal's complete lines")
	}
	if !strings.HasSuffix(after, "\n") || strings.Contains(after, torn.Error[:64]) {
		t.Fatal("the torn tail survived the next append")
	}
}

// TestStoreRefusesCorruptResults: a cached result that is truncated, carries
// a foreign key, or is not JSON at all is a cache miss — the job
// re-simulates and appends a good result — never served.
func TestStoreRefusesCorruptResults(t *testing.T) {
	spec := quickKernel()
	key := spec.Fingerprint()
	cases := []struct {
		name, data string
	}{
		{"truncated", `{"key":"` + key + `","target":"kernel:g`},
		{"foreign-key", `{"key":"somebody-else","target":"kernel:gups"}`},
		{"not-json", "not a result at all"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := plantJournal(t, journalLine("result", key, tc.data))
			srv := newTestServer(t, Config{DataDir: dir})
			defer srv.Close()

			rec, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			done := waitTerminal(t, srv, rec.ID)
			if done.State != StateDone || done.Source != "simulated" {
				t.Fatalf("job with corrupt cache entry finished %s/%s: %s", done.State, done.Source, done.Error)
			}
			if stats := srv.Stats(); stats.CacheHits != 0 || stats.Simulated != 1 {
				t.Fatalf("stats = %+v: corrupt cache entry must not count as a hit", stats)
			}
			// The re-simulated result has healed the cache: the journal's
			// last result line for the key validates.
			var last []byte
			for _, ln := range bytes.Split(readJournal(t, dir), []byte("\n")) {
				if p, ok := bytes.CutPrefix(ln, []byte("result "+key+" ")); ok {
					last = p
				}
			}
			var res Result
			if err := json.Unmarshal(last, &res); err != nil || res.Key != key {
				t.Fatalf("cache entry not healed: %q, %v", last, err)
			}
		})
	}
}

// TestStoreRefusesForeignCheckpoint: a re-enqueued job whose WAL was written
// under a different fingerprint fails with a structured refusal instead of
// resuming from incompatible cells (or crashing).
func TestStoreRefusesForeignCheckpoint(t *testing.T) {
	spec := quickKernel()
	rec := Job{
		ID: "j000001", Key: spec.Fingerprint(), Spec: spec,
		State: StateQueued, SubmittedAt: time.Now().UTC(),
	}
	dir := plantJournal(t, journalLine("job", rec.ID, mustMarshal(t, rec)))
	if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	wal := `{"type":"header","exp":"kernel:gups","fp":"0123456789abcdef"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "ckpt", rec.ID+".ckpt"), []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, Config{DataDir: dir})
	defer srv.Close()
	done := waitTerminal(t, srv, rec.ID)
	if done.State != StateFailed {
		t.Fatalf("job with foreign checkpoint ended %s, want failed", done.State)
	}
	if !strings.Contains(done.Error, "checkpoint") || !strings.Contains(done.Error, "0123456789abcdef") {
		t.Fatalf("refusal error %q does not name the foreign checkpoint", done.Error)
	}
}

// TestBootSkipsIDsOwningCheckpoints: a job record lost while its WAL
// survives must not hand the job's ID to a new job, which would find a
// foreign WAL under its name and refuse to run.
func TestBootSkipsIDsOwningCheckpoints(t *testing.T) {
	dir := t.TempDir()
	first := newTestServer(t, Config{DataDir: dir})
	rec, err := first.Submit(quickKernel())
	if err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, first, rec.ID); rec.ID != "j000001" || done.State != StateDone {
		t.Fatalf("first job %s ended %s (%s)", rec.ID, done.State, done.Error)
	}
	first.Close()
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt", "j000001.ckpt")); err != nil {
		t.Fatalf("the first job left no WAL: %v", err)
	}

	srv := newTestServer(t, Config{DataDir: dir})
	defer srv.Close()
	spec := quickKernel()
	spec.Params.Threads++
	rec, err = srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "j000002" {
		t.Fatalf("new job took ID %s, want j000002", rec.ID)
	}
	if done := waitTerminal(t, srv, rec.ID); done.State != StateDone {
		t.Fatalf("new job ended %s (%s), want done", done.State, done.Error)
	}
}

// TestStoreRefusesOldLayout: a data directory in the per-file layout
// (jobs/, results/) is refused by name rather than booted as empty.
func TestStoreRefusesOldLayout(t *testing.T) {
	for _, sub := range []string{"jobs", "results"} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{DataDir: dir})
		if err == nil {
			srv.Close()
			t.Fatalf("booted on a directory holding %s/", sub)
		}
		if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), sub+"/") {
			t.Fatalf("refusal %q does not name %s/ in %s", err, sub, dir)
		}
	}
}

// TestJournalKeepsResultBytesVerbatim: result bytes come back exactly as
// stored — not re-compacted, not HTML-escaped — across a restart.
func TestJournalKeepsResultBytesVerbatim(t *testing.T) {
	dir := t.TempDir()
	want := []byte(`{"key":"k1","target":"a<b&c>","figures":[{"title":"a<b", "x": 1}]}`)
	st, _, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.saveResult("k1", want); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	_, r, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.results["k1"]; !bytes.Equal(got, want) {
		t.Fatalf("result bytes changed across the journal:\nwant %s\ngot  %s", want, got)
	}
}

// TestStorageOpsPerJob pins the exact number of mutating storage operations
// one job costs, counted by the chaos FS: the journal open on the first
// append, then a write and an fsync per record or result, plus the job's
// WAL. Counts are read after Close or a synchronous Submit, because a
// worker publishes done before it persists it.
func TestStorageOpsPerJob(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Server, *chaos.FS) {
		fsys := chaos.New(chaos.Plan{}, nil)
		return newTestServer(t, Config{DataDir: dir, Workers: 1, FS: fsys}), fsys
	}
	run := func(srv *Server, spec jobspec.Spec) {
		rec, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, srv, rec.ID); got.State != StateDone {
			t.Fatalf("job %s ended %s: %s", rec.ID, got.State, got.Error)
		}
	}

	// A cold kernel job: open, queued + running + result + done, and the
	// kernel's WAL (open, truncate, header and one line per value).
	srv, fsys := boot()
	run(srv, quickKernel())
	srv.Close()
	if got := fsys.Ops(); got != 15 {
		t.Fatalf("cold kernel job: %d storage ops, want 15", got)
	}

	// Cache hits on a fresh boot: the first opens the journal, each then
	// costs one write and one fsync.
	srv, fsys = boot()
	defer srv.Close()
	run(srv, quickKernel())
	if got := fsys.Ops(); got != 3 {
		t.Fatalf("first cache hit: %d storage ops, want 3", got)
	}
	run(srv, quickKernel())
	if got := fsys.Ops(); got != 5 {
		t.Fatalf("second cache hit: %d storage ops in all, want 5", got)
	}

	// A cold quick experiment at Parallel 1 on the open journal: four
	// records and the experiment's WAL (open, truncate, header and one line
	// per cell).
	exp := quickExperiment()
	exp.Parallel = 1
	run(srv, exp)
	srv.Close()
	if got := fsys.Ops() - 5; got != 19 {
		t.Fatalf("cold experiment: %d storage ops, want 19", got)
	}
}

// jobIDForm is the shape every job id has: j%06d.
var jobIDForm = regexp.MustCompile(`^j([0-9]{6}|[1-9][0-9]{6,})$`)

// FuzzJournalReplay replays arbitrary bytes as a journal. Replay never
// panics, every job it yields has an id of the form j%06d, every result it
// yields validates against its key, and after any input one appended record
// ends the file and replays as written — a torn or damaged tail never
// splices into it or outlives it.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, r, err := openStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range r.jobs {
			if !jobIDForm.MatchString(rec.ID) {
				t.Fatalf("replayed job id %q", rec.ID)
			}
		}
		for key, b := range r.results {
			var res Result
			if err := json.Unmarshal(b, &res); err != nil || res.Key != key {
				t.Fatalf("replayed result under %q does not validate: %q", key, b)
			}
		}

		want := Job{
			ID: "j424242", Key: "k", Spec: quickKernel(), State: StateDone, Source: "cache",
			SubmittedAt: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		}
		if err := st.saveJob(want); err != nil {
			t.Fatal(err)
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(raw, []byte(journalLine("job", want.ID, mustMarshal(t, want)))) {
			t.Fatalf("the journal does not end with the appended line: ...%q", raw[max(0, len(raw)-80):])
		}
		if _, r, err = openStore(dir, nil); err != nil {
			t.Fatal(err)
		}
		for _, rec := range r.jobs {
			if rec.ID == want.ID {
				if got, exp := mustMarshal(t, rec), mustMarshal(t, want); got != exp {
					t.Fatalf("appended record replayed as\n%s\nwant\n%s", got, exp)
				}
				return
			}
		}
		t.Fatal("appended record did not replay")
	})
}
