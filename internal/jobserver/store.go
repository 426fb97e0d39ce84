package jobserver

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"emuchick/internal/storefs"
)

// FS is the filesystem interface the store persists through — the storage
// seam of the server. The default is the real filesystem (storefs.OS);
// internal/chaos provides a seeded fault-injecting implementation so tests
// can replay torn writes, ENOSPC, sync/rename failures, and crashes at any
// storage operation deterministically.
type FS = storefs.FS

// The store is the server's durable state, laid out under one data
// directory:
//
//	jobs/<id>.json     — the job record (spec + state), rewritten atomically
//	                     on every state transition; the restart scan
//	                     re-enqueues every job that was queued or running.
//	ckpt/<id>.ckpt     — the job's write-ahead log of completed sweep cells
//	                     (the PR-4 checkpoint, lifted to a per-job store);
//	                     a restarted job resumes from it byte-identically.
//	results/<key>.json — the content-addressed result cache, keyed by the
//	                     jobspec fingerprint; identical requests are served
//	                     from here without re-simulating.
//
// Writes go through create → write → fsync → rename, so a kill at any of
// those operations leaves either the old record or the new one, never a
// torn file (the WAL has its own torn-tail tolerance). The read side is
// equally defensive: a record that does not parse, names the wrong job, or
// a cached result that does not validate against its key is refused —
// surfaced as a failed job or a cache miss — never served and never allowed
// to take the server down.

type store struct {
	fs  FS
	dir string
}

func newStore(dir string, fsys FS) (*store, error) {
	if fsys == nil {
		fsys = storefs.Default
	}
	st := &store{fs: fsys, dir: dir}
	for _, sub := range []string{"jobs", "ckpt", "results"} {
		if err := fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("jobserver: %w", err)
		}
	}
	st.sweepOrphans()
	return st, nil
}

// sweepOrphans removes temp files a previous life's interrupted atomic
// writes left behind. Best-effort: a failure to clean is not a failure to
// boot.
func (st *store) sweepOrphans() {
	for _, sub := range []string{"jobs", "results"} {
		dir := filepath.Join(st.dir, sub)
		entries, err := st.fs.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, ent := range entries {
			if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".tmp") {
				_ = st.fs.Remove(filepath.Join(dir, ent.Name()))
			}
		}
	}
}

func (st *store) jobPath(id string) string  { return filepath.Join(st.dir, "jobs", id+".json") }
func (st *store) ckptPath(id string) string { return filepath.Join(st.dir, "ckpt", id+".ckpt") }
func (st *store) resultPath(key string) string {
	return filepath.Join(st.dir, "results", key+".json")
}

// atomicWrite writes data to path via create → write → fsync → rename. On
// any failure the temp file is removed (best-effort) and the destination
// keeps its previous content, so a half-written record can never be read
// back under the real name.
func (st *store) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := st.fs.OpenFile(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		_ = st.fs.Remove(tmp)
		return err
	}
	// The open mode does not truncate; a surviving orphan must not bleed a
	// stale tail into this write.
	if err := f.Truncate(0); err != nil {
		return fail(err)
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = st.fs.Remove(tmp)
		return err
	}
	if err := st.fs.Rename(tmp, path); err != nil {
		_ = st.fs.Remove(tmp)
		return err
	}
	return nil
}

// saveJob persists one job record.
func (st *store) saveJob(rec Job) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobserver: %w", err)
	}
	return st.atomicWrite(st.jobPath(rec.ID), b)
}

// loadJobs reads every persisted job record, sorted by id (ids are
// zero-padded sequence numbers, so this is submission order). A record that
// is corrupt — unparsable JSON, or a record naming a different job than its
// filename — loads as a refused (failed) job instead of aborting the boot:
// one damaged file must not hold the rest of the store hostage.
func (st *store) loadJobs() ([]Job, error) {
	entries, err := st.fs.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("jobserver: %w", err)
	}
	var out []Job
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		b, err := st.fs.ReadFile(filepath.Join(st.dir, "jobs", name))
		if err != nil {
			return nil, fmt.Errorf("jobserver: %w", err)
		}
		var rec Job
		switch err := json.Unmarshal(b, &rec); {
		case err != nil:
			out = append(out, refusedJob(id, fmt.Sprintf("unparsable record: %v", err)))
		case rec.ID != id:
			out = append(out, refusedJob(id, fmt.Sprintf("record names job %q", rec.ID)))
		default:
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// maxCheckpointSeq returns the highest job sequence number that owns a WAL
// in ckpt/ (0 if none). A WAL can outlive its job record — a noisy disk may
// lose the record — so the boot scan raises the ID sequence past both, and a
// new job never inherits a WAL written under another job's fingerprint.
func (st *store) maxCheckpointSeq() (int, error) {
	entries, err := st.fs.ReadDir(filepath.Join(st.dir, "ckpt"))
	if err != nil {
		return 0, fmt.Errorf("jobserver: %w", err)
	}
	top := 0
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		if n, ok := parseJobID(strings.TrimSuffix(name, ".ckpt")); ok && n > top {
			top = n
		}
	}
	return top, nil
}

// refusedJob is the terminal record a corrupt on-disk job loads as.
func refusedJob(id, reason string) Job {
	return Job{ID: id, State: StateFailed, Error: "refused: corrupt job record: " + reason}
}

// saveResult stores a completed result under its content key.
func (st *store) saveResult(key string, data []byte) error {
	return st.atomicWrite(st.resultPath(key), data)
}

// loadResult fetches a cached result from disk. The bytes are validated
// before they count: a file that does not parse as a Result, or that
// carries a foreign key, is refused — a cache miss, re-simulated and
// overwritten — never served.
func (st *store) loadResult(key string) ([]byte, bool) {
	b, err := st.fs.ReadFile(st.resultPath(key))
	if err != nil {
		return nil, false
	}
	if !validResult(key, b) {
		return nil, false
	}
	return b, true
}

// validResult reports whether data is a well-formed Result for key.
func validResult(key string, data []byte) bool {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return false
	}
	return r.Key == key
}

// hasCheckpoint reports whether the job's WAL holds any records.
func (st *store) hasCheckpoint(id string) bool {
	fi, err := st.fs.Stat(st.ckptPath(id))
	return err == nil && fi.Size() > 0
}
