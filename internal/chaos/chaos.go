// Package chaos is deterministic fault injection for the serving stack's
// storage, the disk-side sibling of internal/fault: where a fault.Plan
// degrades the simulated machine, a chaos.Plan degrades the filesystem the
// job server persists itself to. A seeded plan decides, per storage
// operation, whether that operation is torn mid-write, refused with ENOSPC,
// fails its fsync or rename — or kills the whole filesystem, the
// deterministic stand-in for a process crash at an arbitrary write.
//
// The same contract internal/fault established applies here: every choice a
// plan makes derives from its seed and the operation counter, never from the
// wall clock or ambient randomness, so a given (plan, seed) replays the same
// fault sequence on every run (TestPlanDeterminism builds each plan 64
// times in one process). An empty plan is transparent: the FS behaves
// exactly like the real one.
//
// The server-side contract the fuzz harness proves against this package:
// every injected failure becomes a correct outcome — a job fails with a
// structured error, a cache entry is never half-written, a torn WAL tail is
// dropped on reload — and a crash at any operation leaves a directory a
// restarted server resumes to byte-identical results.
package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"emuchick/internal/storefs"
	"emuchick/internal/workload"
)

// Kind names one injectable storage fault.
type Kind int

const (
	// Torn writes a seeded strict prefix of the data, then fails — the
	// signature of a kill mid-append.
	Torn Kind = iota
	// NoSpace refuses creates and writes with an ENOSPC-shaped error,
	// writing nothing.
	NoSpace
	// SyncFail makes fsync report failure (the data may or may not be
	// durable; the caller must not rename over good data afterwards).
	SyncFail
	// RenameFail makes the atomic-replacement rename fail, leaving the
	// temp file behind and the destination untouched.
	RenameFail
	// Crash kills the filesystem at the matched operation: a data write
	// first lands a seeded partial prefix (kill mid-write), then this and
	// every later operation — reads included — fails with ErrCrashed. The
	// on-disk state freezes as a real SIGKILL would leave it.
	Crash
)

func (k Kind) String() string {
	switch k {
	case Torn:
		return "torn"
	case NoSpace:
		return "enospc"
	case SyncFail:
		return "syncfail"
	case RenameFail:
		return "renamefail"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Injected fault errors, wrapped in *fs.PathError by the FS so callers see
// which path suffered.
var (
	ErrTorn    = errors.New("chaos: torn write (injected)")
	ErrNoSpace = errors.New("chaos: no space left on device (injected ENOSPC)")
	ErrSync    = errors.New("chaos: fsync failed (injected)")
	ErrRename  = errors.New("chaos: rename failed (injected)")
	// ErrCrashed is returned by every operation after a Crash rule fired.
	ErrCrashed = errors.New("chaos: filesystem crashed (injected kill)")
)

// Rule selects the operations one fault kind fires on. The FS counts every
// mutating operation (create, write, sync, truncate, rename, remove) on one
// global 1-based counter; a rule fires when the counter matches At exactly,
// or matches Phase modulo Every for a periodic rule. A rule whose kind
// cannot apply to the matched operation (a RenameFail on a write, say) arms
// and fires at the next operation it can apply to, so exact-At rules stay
// meaningful without the caller knowing the op schedule byte for byte.
type Rule struct {
	Kind Kind
	// At fires the rule once, at the first eligible op with index >= At
	// (1-based). 0 disables the one-shot form.
	At int
	// Every/Phase fire the rule at every eligible op whose index is
	// congruent to Phase mod Every. Every 0 disables the periodic form.
	Every, Phase int
}

// eligible reports whether the rule's kind can apply to the given op.
func (r Rule) eligible(op opKind) bool {
	switch r.Kind {
	case Torn:
		return op == opWrite
	case NoSpace:
		return op == opWrite || op == opCreate
	case SyncFail:
		return op == opSync
	case RenameFail:
		return op == opRename
	case Crash:
		return true
	}
	return false
}

// Plan is one deterministic storage-fault scenario. The zero value injects
// nothing and the FS is then a transparent wrapper.
type Plan struct {
	// Seed drives every choice the plan makes: torn-prefix lengths and the
	// seeded constructors below. Zero behaves as seed 1.
	Seed  uint64
	Rules []Rule
}

// KillPlan returns a plan whose only rule crashes the filesystem at a
// seeded operation in [1, maxOp] — the crash-point fuzzer's per-seed plan.
// KillOp reports which operation a given (seed, maxOp) selects.
func KillPlan(seed uint64, maxOp int) Plan {
	return Plan{Seed: seed, Rules: []Rule{{Kind: Crash, At: KillOp(seed, maxOp)}}}
}

// KillOp is the seeded crash operation KillPlan(seed, maxOp) uses.
func KillOp(seed uint64, maxOp int) int {
	if maxOp < 1 {
		maxOp = 1
	}
	return 1 + rng(seed, 0).Intn(maxOp)
}

// NoisyPlan returns a plan that periodically injects every non-crash fault
// kind: each kind gets a seeded phase modulo every, so different seeds
// degrade different operations. Smaller every means noisier storage.
func NoisyPlan(seed uint64, every int) Plan {
	if every < 1 {
		every = 1
	}
	p := Plan{Seed: seed}
	for i, k := range []Kind{Torn, NoSpace, SyncFail, RenameFail} {
		p.Rules = append(p.Rules, Rule{Kind: k, Every: every, Phase: rng(seed, uint64(i)+1).Intn(every)})
	}
	return p
}

// rng derives a salted deterministic stream from the plan seed, mirroring
// internal/fault's per-rule streams.
func rng(seed, salt uint64) *workload.RNG {
	if seed == 0 {
		seed = 1
	}
	return workload.NewRNG(seed ^ (salt+1)*0x9E3779B97F4A7C15)
}

// opKind classifies the counted mutating operations.
type opKind int

const (
	opCreate opKind = iota
	opWrite
	opSync
	opTruncate
	opRename
	opRemove
)

func (o opKind) String() string {
	return [...]string{"create", "write", "sync", "truncate", "rename", "remove"}[o]
}

// Record is one injected fault, for test assertions and fault accounting.
type Record struct {
	Op   int    // global op index the fault fired at
	Kind Kind   // which fault
	Path string // the path it hit
}

// FS is a storefs.FS that injects the plan's faults. All methods are safe
// for concurrent use; operations are ordered by one global counter under a
// single mutex, which is what makes single-worker fault schedules exactly
// reproducible.
type FS struct {
	inner storefs.FS
	plan  Plan

	mu       sync.Mutex
	ops      int
	crashed  bool
	fired    []bool // per one-shot rule
	injected []Record
	onCrash  func()
}

// New wraps the real filesystem with the plan's faults. onCrash, when
// non-nil, is called exactly once, outside the FS lock, when a Crash rule
// fires (the fuzz harness uses it to tear the server down).
func New(plan Plan, onCrash func()) *FS {
	return &FS{inner: storefs.Default, plan: plan, fired: make([]bool, len(plan.Rules)), onCrash: onCrash}
}

// Ops reports how many mutating operations the FS has counted.
func (c *FS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Crashed reports whether a Crash rule has fired.
func (c *FS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Injected returns every fault fired so far, in op order.
func (c *FS) Injected() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.injected))
	copy(out, c.injected)
	return out
}

// step counts one mutating op and resolves the fault to inject, if any.
// It returns the op index, the matched kind, and whether a fault fires.
// Caller holds c.mu.
func (c *FS) step(op opKind, path string) (int, Kind, bool) {
	c.ops++
	for i, r := range c.plan.Rules {
		if !r.eligible(op) {
			continue
		}
		oneShot := r.At > 0 && !c.fired[i] && c.ops >= r.At
		periodic := r.Every > 0 && c.ops%r.Every == r.Phase%r.Every
		if !oneShot && !periodic {
			continue
		}
		if oneShot {
			c.fired[i] = true
		}
		c.injected = append(c.injected, Record{Op: c.ops, Kind: r.Kind, Path: path})
		return c.ops, r.Kind, true
	}
	return c.ops, 0, false
}

// crash freezes the FS. Caller holds c.mu; the hook is returned so the
// caller can invoke it after unlocking.
func (c *FS) crash() func() {
	c.crashed = true
	hook := c.onCrash
	c.onCrash = nil
	return hook
}

// tornPrefix is the seeded strict-prefix length for a torn write at op.
func (c *FS) tornPrefix(op, n int) int {
	if n == 0 {
		return 0
	}
	return rng(c.plan.Seed, uint64(op)*2+1).Intn(n)
}

func pathErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

func (c *FS) MkdirAll(path string, perm fs.FileMode) error {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return pathErr("mkdir", path, ErrCrashed)
	}
	return c.inner.MkdirAll(path, perm)
}

func (c *FS) ReadFile(path string) ([]byte, error) {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return nil, pathErr("read", path, ErrCrashed)
	}
	return c.inner.ReadFile(path)
}

func (c *FS) ReadDir(path string) ([]fs.DirEntry, error) {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return nil, pathErr("readdir", path, ErrCrashed)
	}
	return c.inner.ReadDir(path)
}

func (c *FS) Stat(path string) (fs.FileInfo, error) {
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return nil, pathErr("stat", path, ErrCrashed)
	}
	return c.inner.Stat(path)
}

func (c *FS) OpenFile(path string) (storefs.File, error) {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return nil, pathErr("open", path, ErrCrashed)
	}
	_, kind, fire := c.step(opCreate, path)
	var hook func()
	if fire && kind == Crash {
		hook = c.crash()
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if fire {
		switch kind {
		case NoSpace:
			return nil, pathErr("open", path, ErrNoSpace)
		case Crash:
			return nil, pathErr("open", path, ErrCrashed)
		}
	}
	f, err := c.inner.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &file{fs: c, inner: f, path: path}, nil
}

func (c *FS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return pathErr("rename", oldpath, ErrCrashed)
	}
	_, kind, fire := c.step(opRename, newpath)
	var hook func()
	if fire && kind == Crash {
		hook = c.crash()
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if fire {
		switch kind {
		case RenameFail:
			return pathErr("rename", newpath, ErrRename)
		case Crash:
			// The kill lands before the rename: destination keeps its old
			// content, the temp file survives as an orphan.
			return pathErr("rename", newpath, ErrCrashed)
		}
	}
	return c.inner.Rename(oldpath, newpath)
}

func (c *FS) Remove(path string) error {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return pathErr("remove", path, ErrCrashed)
	}
	_, kind, fire := c.step(opRemove, path)
	var hook func()
	if fire && kind == Crash {
		hook = c.crash()
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if fire && kind == Crash {
		return pathErr("remove", path, ErrCrashed)
	}
	return c.inner.Remove(path)
}

// file wraps one open handle, injecting write-side faults.
type file struct {
	fs    *FS
	inner storefs.File
	path  string
}

func (f *file) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return 0, pathErr("write", f.path, ErrCrashed)
	}
	op, kind, fire := c.step(opWrite, f.path)
	var hook func()
	if fire && kind == Crash {
		hook = c.crash()
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if fire {
		switch kind {
		case Torn, Crash:
			// Kill mid-write: a seeded strict prefix lands, the rest is lost.
			n := c.tornPrefix(op, len(p))
			if n > 0 {
				if wn, err := f.inner.Write(p[:n]); err != nil {
					return wn, err
				}
			}
			if kind == Crash {
				return n, pathErr("write", f.path, ErrCrashed)
			}
			return n, pathErr("write", f.path, ErrTorn)
		case NoSpace:
			return 0, pathErr("write", f.path, ErrNoSpace)
		}
	}
	return f.inner.Write(p)
}

func (f *file) Sync() error {
	c := f.fs
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return pathErr("sync", f.path, ErrCrashed)
	}
	_, kind, fire := c.step(opSync, f.path)
	var hook func()
	if fire && kind == Crash {
		hook = c.crash()
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if fire {
		switch kind {
		case SyncFail:
			return pathErr("sync", f.path, ErrSync)
		case Crash:
			return pathErr("sync", f.path, ErrCrashed)
		}
	}
	return f.inner.Sync()
}

func (f *file) Truncate(size int64) error {
	c := f.fs
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return pathErr("truncate", f.path, ErrCrashed)
	}
	_, kind, fire := c.step(opTruncate, f.path)
	var hook func()
	if fire && kind == Crash {
		hook = c.crash()
	}
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if fire && kind == Crash {
		return pathErr("truncate", f.path, ErrCrashed)
	}
	return f.inner.Truncate(size)
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	c := f.fs
	c.mu.Lock()
	dead := c.crashed
	c.mu.Unlock()
	if dead {
		return 0, pathErr("seek", f.path, ErrCrashed)
	}
	return f.inner.Seek(offset, whence)
}

func (f *file) Close() error {
	// Close always reaches the real handle so descriptors never leak, even
	// after a crash froze the data plane.
	return f.inner.Close()
}
