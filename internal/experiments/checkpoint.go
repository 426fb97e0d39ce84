package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"emuchick/internal/kernels"
	"emuchick/internal/sim"
	"emuchick/internal/storefs"
)

// The checkpoint is a write-ahead log of finished sweep cells: one JSONL
// record is appended (and flushed by the OS on process death — O_APPEND,
// no userspace buffering) after every completed (series, point, trial)
// simulation, so a killed run loses at most the cell in flight. On resume
// the log is replayed, completed cells are re-slotted without re-running,
// and the assembled figures are byte-identical to an uninterrupted run —
// Go's JSON encoding of float64 round-trips exactly, so a replayed value
// is the bit pattern the simulation produced.
//
// Cells are addressed by (sweep, cell): cell is the runner's flat
// series×points×trials index, and sweep counts the sweep.run calls an
// experiment makes in order (fig10 runs three sweeps; each gets its own
// index). Both are deterministic for a given experiment and options, which
// is what makes replay-by-index sound.
//
// The header record carries the experiment id and an options fingerprint;
// a resume under different workload-shaping options (trials, scale, fault
// plan, seed) is refused rather than silently mixing incompatible cells.
// Parallelism is deliberately outside the fingerprint: results are slotted
// by index, never by arrival order, so a sweep may be resumed at any
// -parallel.

// ckptKey addresses one recorded cell.
type ckptKey struct {
	sweep, cell int
}

// ckptRecord is the one-line JSON schema of every checkpoint entry.
type ckptRecord struct {
	Type  string       `json:"type"` // "header", "cell", or "fail"
	Exp   string       `json:"exp,omitempty"`
	FP    string       `json:"fp,omitempty"`
	Sweep int          `json:"sweep,omitempty"`
	Cell  int          `json:"cell,omitempty"`
	V     *float64     `json:"v,omitempty"`
	Fail  *CellFailure `json:"fail,omitempty"`
}

// ParkedProcRecord is the serializable form of one sim.ParkedProc in a
// failure record.
type ParkedProcRecord struct {
	Name     string `json:"name"`
	Site     string `json:"site"`
	ParkedAt int64  `json:"parked_at"`
	WakeAt   int64  `json:"wake_at,omitempty"`
	HasWake  bool   `json:"has_wake,omitempty"`
}

// CellFailure is the post-mortem of a cell that could not produce a result:
// which cell, how many attempts it was given, and — when the underlying
// error was a sim.RunError — the engine's structured state at death,
// including the parked-proc dump.
type CellFailure struct {
	Sweep    int    `json:"sweep"`
	Cell     int    `json:"cell"`
	Series   int    `json:"series"`
	Point    int    `json:"point"`
	Trial    int    `json:"trial"`
	Attempts int    `json:"attempts"`
	Kind     string `json:"kind"` // sim.FailureKind string, or "error"
	Reason   string `json:"reason"`
	SimTime  int64  `json:"sim_time,omitempty"`
	Fired    uint64 `json:"fired,omitempty"`
	// Parked lists up to maxParkedRecorded parked procs; ParkedTotal is the
	// full count (a full-machine deadlock can park thousands of threadlets).
	Parked      []ParkedProcRecord `json:"parked,omitempty"`
	ParkedTotal int                `json:"parked_total,omitempty"`
}

// maxParkedRecorded bounds the per-failure proc dump in the checkpoint.
const maxParkedRecorded = 32

// newCellFailure builds a failure record from a cell's final error,
// extracting the structured sim.RunError detail when present.
func newCellFailure(attempts int, err error) *CellFailure {
	cf := &CellFailure{Attempts: attempts, Kind: "error", Reason: err.Error()}
	var re *sim.RunError
	if errors.As(err, &re) {
		cf.Kind = re.Kind.String()
		cf.SimTime = int64(re.Now)
		cf.Fired = re.Fired
		cf.ParkedTotal = len(re.Parked)
		n := len(re.Parked)
		if n > maxParkedRecorded {
			n = maxParkedRecorded
		}
		for _, p := range re.Parked[:n] {
			cf.Parked = append(cf.Parked, ParkedProcRecord{
				Name:     p.Name,
				Site:     p.Site,
				ParkedAt: int64(p.ParkedAt),
				WakeAt:   int64(p.WakeAt),
				HasWake:  p.HasWake,
			})
		}
	}
	return cf
}

// checkpoint is an open write-ahead log. Record/RecordFailure are safe for
// concurrent use by sweep workers; Lookup and nextSweep are called from the
// runner's coordinating goroutine.
type checkpoint struct {
	mu       sync.Mutex
	f        storefs.File
	exp      string
	fp       string
	done     map[ckptKey]float64
	sweeps   int
	recorded int
	onRecord func(recorded int) // test hook, called after each Record
}

// CheckpointPath resolves a checkpoint argument for one experiment: a
// directory — an existing one, or any path with a trailing separator —
// maps to <dir>/<exp-id>.ckpt so one flag can serve a multi-experiment run
// (each experiment keeps its own log); any other path is used as-is.
func CheckpointPath(path, expID string) string {
	if strings.HasSuffix(path, "/") || strings.HasSuffix(path, string(os.PathSeparator)) {
		return filepath.Join(path, expID+".ckpt")
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return filepath.Join(path, expID+".ckpt")
	}
	return path
}

// openCheckpoint opens (or creates) the write-ahead log at path on fsys
// (nil means the real filesystem) for the given owner — an experiment id,
// or kernel/<name> for a measurement — and workload fingerprint. An
// existing log is replayed: completed cells become Lookup hits, failure
// records are skipped (their cells re-run), and a torn final line — the
// expected signature of a kill mid-append, which leaves a line
// unterminated or unparseable — is dropped. A log whose first record is
// not a header, or whose header names a different owner or different
// workload-shaping options, is refused and left as it was.
func openCheckpoint(fsys storefs.FS, path, owner, fingerprint string) (*checkpoint, error) {
	if fsys == nil {
		fsys = storefs.Default
	}
	c := &checkpoint{exp: owner, fp: fingerprint, done: map[ckptKey]float64{}}
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	hasHeader := false
	valid := 0 // byte offset past the last fully parsed line
	for line := 1; valid < len(data); line++ {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // every record ends in a newline: the rest was torn mid-append
		}
		end := valid + nl + 1
		raw := bytes.TrimSpace(data[valid:end])
		if len(raw) == 0 {
			valid = end
			continue
		}
		var rec ckptRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			if len(bytes.TrimSpace(data[end:])) == 0 {
				break // torn tail from a kill mid-write: discard and resume
			}
			return nil, fmt.Errorf("checkpoint %s: corrupt record at line %d: %w", path, line, err)
		}
		if !hasHeader && rec.Type != "header" {
			return nil, fmt.Errorf(
				"checkpoint %s does not begin with a header (line %d is a %q record), so it cannot be matched to this run — delete the file or pass a fresh -checkpoint path",
				path, line, rec.Type)
		}
		switch rec.Type {
		case "header":
			if rec.Exp != owner || rec.FP != fingerprint {
				return nil, fmt.Errorf(
					"checkpoint %s was written for experiment %q (fingerprint %s); this run is %q (fingerprint %s) — delete the file or pass a fresh -checkpoint path",
					path, rec.Exp, rec.FP, owner, fingerprint)
			}
			hasHeader = true
		case "cell":
			if rec.V != nil {
				c.done[ckptKey{rec.Sweep, rec.Cell}] = *rec.V
			}
		}
		valid = end
	}
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// Drop any torn tail before appending, so the next resume never sees a
	// partial line spliced into a fresh record.
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c.f = f
	if !hasHeader {
		if err := c.append(ckptRecord{Type: "header", Exp: owner, FP: fingerprint}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// append marshals rec and writes it as one line. Caller holds mu or is the
// only user.
func (c *checkpoint) append(rec ckptRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	b = append(b, '\n')
	if _, err := c.f.Write(b); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Lookup reports the recorded result of a completed cell, if any. Failed
// cells are not returned — they re-run on resume.
func (c *checkpoint) Lookup(sweep, cell int) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.done[ckptKey{sweep, cell}]
	return v, ok
}

// Completed reports how many cell results the log holds.
func (c *checkpoint) Completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Record appends one completed cell to the log.
func (c *checkpoint) Record(sweep, cell int, v float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.append(ckptRecord{Type: "cell", Sweep: sweep, Cell: cell, V: &v}); err != nil {
		return err
	}
	c.done[ckptKey{sweep, cell}] = v
	c.recorded++
	if c.onRecord != nil {
		c.onRecord(c.recorded)
	}
	return nil
}

// RecordFailure appends a cell's post-mortem to the log.
func (c *checkpoint) RecordFailure(cf *CellFailure) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.append(ckptRecord{Type: "fail", Sweep: cf.Sweep, Cell: cf.Cell, Fail: cf})
}

// Close flushes and closes the log file.
func (c *checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// recordMeasurement logs a finished kernel measurement: its values at
// cells 1..n of sweep 0, then their count at cell 0 as the completion
// marker, written last.
func (c *checkpoint) recordMeasurement(m kernels.Measurement) error {
	for i, v := range m.Values {
		if err := c.Record(0, i+1, v); err != nil {
			return err
		}
	}
	return c.Record(0, 0, float64(len(m.Values)))
}

// measurement reassembles a measurement of k logged by recordMeasurement,
// reporting false unless the log holds the marker and every value it
// counts.
func (c *checkpoint) measurement(k kernels.Kernel) (kernels.Measurement, bool) {
	n, ok := c.Lookup(0, 0)
	if !ok {
		return kernels.Measurement{}, false
	}
	var vals []float64
	for i := 1; i <= int(n); i++ {
		v, ok := c.Lookup(0, i)
		if !ok {
			return kernels.Measurement{}, false
		}
		vals = append(vals, v)
	}
	return kernels.Measurement{Kernel: k.Name, Labels: k.Labels, Values: vals}, true
}

// nextSweep hands out the index for the next sweep.run call of this run.
// Sweeps execute sequentially inside a Runner, in source order, so the
// sequence is identical across the original run and every resume.
func (c *checkpoint) nextSweep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.sweeps
	c.sweeps++
	return n
}

// ckptLayout is the revision of the experiments' (sweep, cell) layout,
// folded into every fingerprint so a log written under an older layout is
// refused instead of replayed into the wrong cells. Revision 2 made fig8's
// STREAM peaks sweep 0 and its chase sweep 1, and gave stream-anchors,
// migration-anchors and scaling-nodes a sweep; revision 1 logs carry no
// layout field.
const ckptLayout = 2

// OptionClass says which side of the fingerprint an Options field is on.
type OptionClass int

const (
	// OptionIn fields shape the workload: two runs differing in one must
	// never share a checkpoint or a cached result.
	OptionIn OptionClass = iota
	// OptionOut fields only change how cells are driven (scheduling,
	// tracing, watchdogs); resume must work across any change to one.
	OptionOut
)

func (c OptionClass) String() string {
	if c == OptionIn {
		return "In"
	}
	return "Out"
}

// OptionFields classifies every Options field. optionsFingerprint reads
// exactly the In fields; jobspec's content address folds in the same set.
// fingerprint_class_test.go holds the table to the struct by reflection
// and checks that each In field moves the fingerprint and each Out field
// does not, so a new field fails the tests until it is classified here.
var OptionFields = map[string]OptionClass{
	// Workload-shaping: these decide which cells exist and what they compute.
	"Trials":    OptionIn,
	"Quick":     OptionIn,
	"Faults":    OptionIn,
	"FaultSeed": OptionIn,
	// Drive-side: results are identical across any change to these.
	"Parallel":       OptionOut,
	"Observer":       OptionOut,
	"SampleInterval": OptionOut,
	"Checkpoint":     OptionOut, // the log's own path; recorded nowhere inside it
	"CellTimeout":    OptionOut,
	"Retries":        OptionOut,
	"ctx":            OptionOut,
	"ckptFS":         OptionOut, // which filesystem holds the WAL, not what it records
	"ckpt":           OptionOut,
	"maxEvents":      OptionOut,
	"ckptHook":       OptionOut,
}

// optionsFingerprint hashes every option that shapes the workload — and
// nothing that doesn't — plus ckptLayout. Trials, scale, and the fault
// plan/seed change which cells exist or what they compute, so they are in;
// Parallel, Observer, the context, and the watchdog settings only change
// how cells are driven, so they are out (a run interrupted at -parallel 8
// may resume at -parallel 1, or with a longer -cell-timeout, and still
// reuse every completed cell).
func optionsFingerprint(expID string, o Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s;trials=%d;quick=%t;faultseed=%d;layout=%d;", expID, o.Trials, o.Quick, o.FaultSeed, ckptLayout)
	if o.Faults != nil {
		b, err := json.Marshal(o.Faults)
		if err != nil {
			// A plan that cannot marshal cannot be fingerprinted; make the
			// fingerprint unique so resume is refused rather than unsound.
			fmt.Fprintf(h, "unmarshalable=%p", o.Faults)
		} else {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
