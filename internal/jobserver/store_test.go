package jobserver

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// seedDataDir lays out an empty store directory tree for tests that plant
// corrupt files before the first boot.
func seedDataDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, sub := range []string{"jobs", "ckpt", "results"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeFile plants one file in the seeded data directory.
func writeFile(t *testing.T, dir string, parts ...string) func(data string) {
	t.Helper()
	path := filepath.Join(append([]string{dir}, parts...)...)
	return func(data string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreRefusesCorruptJobRecords: damaged job records — unparsable JSON,
// or a record naming a different job than its filename — load as refused
// failed jobs. The rest of the store boots and serves normally; one damaged
// file never takes the server down.
func TestStoreRefusesCorruptJobRecords(t *testing.T) {
	goodSpec := quickKernel()
	good := Job{
		ID: "j000003", Key: goodSpec.Fingerprint(), Spec: goodSpec,
		State: StateDone, Source: "simulated", SubmittedAt: time.Now().UTC(),
	}
	goodJSON, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, id, data string
		wantErr        string
	}{
		{"truncated-json", "j000001", `{"id":"j000001","state":"run`, "unparsable record"},
		{"binary-garbage", "j000002", "\x00\x7fELF not json", "unparsable record"},
		{"foreign-id", "j000004", strings.Replace(string(goodJSON), "j000003", "j000099", 1), `names job "j000099"`},
	}

	dir := seedDataDir(t)
	writeFile(t, dir, "jobs", good.ID+".json")(string(goodJSON))
	for _, tc := range cases {
		writeFile(t, dir, "jobs", tc.id+".json")(tc.data)
	}

	srv := newTestServer(t, Config{DataDir: dir})
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
	// The intact neighbor is untouched and the server still takes work.
	if rec, ok := srv.Get(good.ID); !ok || rec.State != StateDone {
		t.Fatalf("intact record alongside corrupt ones: %+v, %v", rec, ok)
	}
	sub, err := srv.Submit(quickKernel())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, srv, sub.ID); got.State != StateDone {
		t.Fatalf("submit after corrupt boot ended %s: %s", got.State, got.Error)
	}
}

// TestStoreRefusesCorruptResults: a cached result that is truncated, carries
// a foreign key, or is not JSON at all is a cache miss — the job
// re-simulates and overwrites it — never served.
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
			dir := seedDataDir(t)
			writeFile(t, dir, "results", key+".json")(tc.data)
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
			// The re-simulated result has healed the cache file.
			b, err := os.ReadFile(filepath.Join(dir, "results", key+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if err := json.Unmarshal(b, &res); err != nil || res.Key != key {
				t.Fatalf("cache entry not healed: %q, %v", b, err)
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
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	dir := seedDataDir(t)
	writeFile(t, dir, "jobs", rec.ID+".json")(string(b))
	writeFile(t, dir, "ckpt", rec.ID+".ckpt")(
		`{"type":"header","exp":"kernel:gups","fp":"0123456789abcdef"}` + "\n")

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

// TestStoreSweepsOrphanTempFiles: .tmp leftovers of interrupted atomic
// writes are removed at boot, and never surface as jobs or results.
func TestStoreSweepsOrphanTempFiles(t *testing.T) {
	dir := seedDataDir(t)
	writeFile(t, dir, "jobs", "j000009.json.tmp")(`{"id":"j000009"`)
	writeFile(t, dir, "results", "feedface.json.tmp")(`{"key":"feed`)

	srv := newTestServer(t, Config{DataDir: dir})
	defer srv.Close()
	for _, p := range []string{
		filepath.Join(dir, "jobs", "j000009.json.tmp"),
		filepath.Join(dir, "results", "feedface.json.tmp"),
	} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the boot sweep", p)
		}
	}
	if _, ok := srv.Get("j000009"); ok {
		t.Fatal("orphan temp file surfaced as a job")
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
	if err := os.Remove(filepath.Join(dir, "jobs", "j000001.json")); err != nil {
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
