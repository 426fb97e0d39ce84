package jobserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"emuchick/internal/storefs"
)

// FS is the filesystem interface the store persists through — the storage
// seam of the server. The default is the real filesystem (storefs.OS);
// internal/chaos provides a seeded fault-injecting implementation so tests
// can replay torn writes, ENOSPC, sync failures, and crashes at any storage
// operation deterministically.
type FS = storefs.FS

// The store is the server's durable state, laid out under one data
// directory:
//
//	journal        — the append-only journal of job records and results, one
//	                 newline-terminated line each:
//	                     job <id> <Job JSON>
//	                     result <key> <result bytes, verbatim>
//	                 Every state transition appends its job's whole record;
//	                 boot replays the file, the last record per job wins, and
//	                 every job that was queued or running is re-enqueued.
//	                 Results are the content-addressed cache, keyed by the
//	                 jobspec fingerprint; boot loads them all into memory.
//	ckpt/<id>.ckpt — the job's write-ahead log of completed sweep cells
//	                 (the sweep checkpoint, lifted to a per-job store); a
//	                 restarted job resumes from it byte-identically.
//
// Each line is written and fsynced under one mutex, and the call returns
// only after the fsync does, so an acknowledged line is durable. A line
// counts only when it is newline-terminated and parses: an unterminated
// tail is a torn append, dropped by replay and truncated away before the
// next append, and so is whatever a failed append (torn write, ENOSPC,
// failed fsync) left behind. Torn appends therefore never splice into the
// next line. The frame puts the job id or result key before the payload, so
// the name survives damage to the rest of the line: a record that does not
// parse or names another job loads as a refused (failed) job, a result that
// does not validate against its key is a cache miss, and a line that names
// nothing is skipped and counted in the boot log line. Nothing in the
// journal can make boot fail, and nothing is ever compacted: the journal
// keeps every record the server wrote.

const journalName = "journal"

type store struct {
	fs  FS
	dir string

	mu   sync.Mutex
	f    storefs.File // nil until the first append
	size int64        // length of the journal's acknowledged prefix
	// dirty says the file may hold bytes past size — a torn tail or a
	// failed append — to cut before the next append.
	dirty  bool
	closed bool
}

// openStore opens the data directory and replays its journal, arming the
// store to append after the last complete line. It refuses a directory in
// the per-file layout older servers wrote (jobs/ and results/), which this
// store does not read, rather than booting with no jobs.
func openStore(dir string, fsys FS) (*store, replayed, error) {
	if fsys == nil {
		fsys = storefs.Default
	}
	for _, old := range []string{"jobs", "results"} {
		if _, err := fsys.Stat(filepath.Join(dir, old)); err == nil {
			return nil, replayed{}, fmt.Errorf("jobserver: data directory %s holds %s/ from the per-file store layout; this server keeps one journal and does not read it", dir, old)
		}
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
		return nil, replayed{}, fmt.Errorf("jobserver: %w", err)
	}
	st := &store{fs: fsys, dir: dir}
	data, err := fsys.ReadFile(st.journalPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, replayed{}, fmt.Errorf("jobserver: %w", err)
	}
	r := replay(data)
	st.size, st.dirty = r.good, r.good < int64(len(data))
	return st, r, nil
}

func (st *store) journalPath() string       { return filepath.Join(st.dir, journalName) }
func (st *store) ckptPath(id string) string { return filepath.Join(st.dir, "ckpt", id+".ckpt") }

// replayed is the state a journal holds.
type replayed struct {
	jobs    []Job             // sorted by id: submission order
	results map[string][]byte // key -> validated result bytes
	skipped int               // lines that name no job or result
	good    int64             // length of the newline-terminated prefix
}

// replay parses journal bytes. It never fails: damage is refused line by
// line, and an unterminated tail is ignored.
func replay(data []byte) replayed {
	r := replayed{results: map[string][]byte{}}
	last := map[string]Job{}
	for off := 0; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		line := data[off : off+nl]
		off += nl + 1
		r.good = int64(off)
		kind, rest, _ := bytes.Cut(line, []byte(" "))
		name, payload, _ := bytes.Cut(rest, []byte(" "))
		switch id := string(name); {
		case string(kind) == "job" && validJobID(id):
			var rec Job
			switch err := json.Unmarshal(payload, &rec); {
			case err != nil:
				last[id] = refusedJob(id, fmt.Sprintf("unparsable record: %v", err))
			case rec.ID != id:
				last[id] = refusedJob(id, fmt.Sprintf("record names job %q", rec.ID))
			default:
				last[id] = rec
			}
		case string(kind) == "result" && len(name) > 0:
			if validResult(id, payload) {
				r.results[id] = bytes.Clone(payload)
			}
		default:
			r.skipped++
		}
	}
	for _, rec := range last {
		r.jobs = append(r.jobs, rec)
	}
	sort.Slice(r.jobs, func(i, j int) bool { return r.jobs[i].ID < r.jobs[j].ID })
	return r
}

// appendLine writes one "<kind> <name> <payload>" line and fsyncs it. The
// journal opens at the first append; anything a previous append or a
// previous life left past the acknowledged prefix is truncated first, so a
// failed append is never spliced into the next one.
func (st *store) appendLine(kind, name string, payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("jobserver: %s %s: payload holds a newline", kind, name)
	}
	line := fmt.Appendf(nil, "%s %s %s\n", kind, name, payload)

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errors.New("jobserver: store closed")
	}
	if st.f == nil {
		f, err := st.fs.OpenFile(st.journalPath())
		if err != nil {
			return fmt.Errorf("jobserver: journal: %w", err)
		}
		st.f = f
	}
	if st.dirty {
		if err := st.f.Truncate(st.size); err != nil {
			return fmt.Errorf("jobserver: journal: %w", err)
		}
		st.dirty = false
	}
	// The open mode does not append, and a failed write may have moved the
	// offset past the acknowledged prefix.
	if _, err := st.f.Seek(st.size, io.SeekStart); err != nil {
		return fmt.Errorf("jobserver: journal: %w", err)
	}
	st.dirty = true // until the line is written and synced
	if _, err := st.f.Write(line); err != nil {
		return fmt.Errorf("jobserver: journal: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("jobserver: journal: %w", err)
	}
	st.size += int64(len(line))
	st.dirty = false
	return nil
}

// close closes the journal; later appends fail.
func (st *store) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}

// saveJob appends one job record.
func (st *store) saveJob(rec Job) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobserver: %w", err)
	}
	return st.appendLine("job", rec.ID, b)
}

// saveResult appends a completed result under its content key, verbatim.
func (st *store) saveResult(key string, data []byte) error {
	return st.appendLine("result", key, data)
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

// parseJobID returns the sequence number of an id of the form j%06d.
func parseJobID(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil || n < 0 || id != fmt.Sprintf("j%06d", n) {
		return 0, false
	}
	return n, true
}

func validJobID(id string) bool {
	_, ok := parseJobID(id)
	return ok
}

// refusedJob is the terminal record a corrupt journal record loads as.
func refusedJob(id, reason string) Job {
	return Job{ID: id, State: StateFailed, Error: "refused: corrupt job record: " + reason}
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
