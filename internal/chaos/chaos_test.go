package chaos

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"emuchick/internal/storefs"
)

// writeThrough runs one atomic-write-shaped op sequence (create, write,
// sync, close, rename) against fsys, returning the first error.
func writeThrough(fsys storefs.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fsys.OpenFile(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, name))
}

// TestEmptyPlanIsTransparent: a ruleless FS behaves exactly like the OS.
func TestEmptyPlanIsTransparent(t *testing.T) {
	dir := t.TempDir()
	fsys := New(Plan{Seed: 3}, nil)
	if err := writeThrough(fsys, dir, "a.json", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if n := fsys.Ops(); n != 4 { // create, write, sync, rename
		t.Fatalf("ops = %d, want 4", n)
	}
	if inj := fsys.Injected(); len(inj) != 0 {
		t.Fatalf("empty plan injected %v", inj)
	}
}

// TestPlanDeterminism: a seeded plan is a pure function of its seed. The
// plan constructors give the same plan 64 times over in one process, and
// the same (plan, op sequence) injects the same faults at the same ops with
// the same torn prefixes, run after run. Repeating the construction in one
// process is what catches an ordering drawn from map iteration, which can
// agree with itself by chance a few times in a row.
func TestPlanDeterminism(t *testing.T) {
	noisy, kill, op := NoisyPlan(42, 3), KillPlan(42, 100), KillOp(42, 100)
	for i := 1; i < 64; i++ {
		if p := NoisyPlan(42, 3); !reflect.DeepEqual(p, noisy) {
			t.Fatalf("construction %d: NoisyPlan(42, 3) = %+v, the first gave %+v", i, p, noisy)
		}
		if p := KillPlan(42, 100); !reflect.DeepEqual(p, kill) {
			t.Fatalf("construction %d: KillPlan(42, 100) = %+v, the first gave %+v", i, p, kill)
		}
		if got := KillOp(42, 100); got != op {
			t.Fatalf("construction %d: KillOp(42, 100) = %d, the first gave %d", i, got, op)
		}
	}

	run := func() ([]Record, []byte) {
		dir := t.TempDir()
		fsys := New(NoisyPlan(42, 3), nil)
		for i := 0; i < 8; i++ {
			_ = writeThrough(fsys, dir, "f.json", bytes.Repeat([]byte{byte('a' + i)}, 64))
		}
		data, _ := os.ReadFile(filepath.Join(dir, "f.json.tmp"))
		return fsys.Injected(), data
	}
	inj1, tmp1 := run()
	if len(inj1) == 0 {
		t.Fatal("noisy plan injected nothing over 32 ops")
	}
	for i := 1; i < 32; i++ {
		inj, tmp := run()
		if !reflect.DeepEqual(stripPaths(inj1), stripPaths(inj)) {
			t.Fatalf("run %d: fault schedule not deterministic:\n%v\n%v", i, inj1, inj)
		}
		if !bytes.Equal(tmp1, tmp) {
			t.Fatalf("run %d: torn prefixes differ: %d vs %d bytes", i, len(tmp1), len(tmp))
		}
	}
}

func stripPaths(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.Path = filepath.Base(r.Path)
		out[i] = r
	}
	return out
}

// TestTornWriteLeavesStrictPrefix: a torn write lands fewer bytes than asked
// and reports ErrTorn.
func TestTornWriteLeavesStrictPrefix(t *testing.T) {
	dir := t.TempDir()
	fsys := New(Plan{Seed: 7, Rules: []Rule{{Kind: Torn, At: 2}}}, nil)
	data := bytes.Repeat([]byte("x"), 256)
	err := writeThrough(fsys, dir, "t.json", data)
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "t.json.tmp"))
	if len(got) >= len(data) {
		t.Fatalf("torn write landed %d of %d bytes", len(got), len(data))
	}
	if _, err := os.Stat(filepath.Join(dir, "t.json")); !os.IsNotExist(err) {
		t.Fatal("torn write reached the destination path")
	}
}

// TestNoSpaceAndSyncAndRename: each kind fires only on its own op class.
func TestNoSpaceAndSyncAndRename(t *testing.T) {
	cases := []struct {
		kind Kind
		at   int // ops: 1 create, 2 write, 3 sync, 4 rename
		want error
	}{
		{NoSpace, 2, ErrNoSpace},
		{SyncFail, 3, ErrSync},
		{RenameFail, 4, ErrRename},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			fsys := New(Plan{Seed: 1, Rules: []Rule{{Kind: tc.kind, At: tc.at}}}, nil)
			err := writeThrough(fsys, dir, "f.json", []byte("payload"))
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if _, err := os.Stat(filepath.Join(dir, "f.json")); !os.IsNotExist(err) {
				t.Fatal("failed write reached the destination path")
			}
			inj := fsys.Injected()
			if len(inj) != 1 || inj[0].Kind != tc.kind || inj[0].Op != tc.at {
				t.Fatalf("injected = %v, want one %v at op %d", inj, tc.kind, tc.at)
			}
		})
	}
}

// TestRuleArmsUntilEligible: an exact-At rule whose op class does not match
// at At fires at the next eligible op instead of being lost.
func TestRuleArmsUntilEligible(t *testing.T) {
	dir := t.TempDir()
	// Op 1 is a create; the rename-fail rule armed at 1 must wait for op 4.
	fsys := New(Plan{Seed: 1, Rules: []Rule{{Kind: RenameFail, At: 1}}}, nil)
	err := writeThrough(fsys, dir, "f.json", []byte("payload"))
	if !errors.Is(err, ErrRename) {
		t.Fatalf("err = %v, want ErrRename", err)
	}
	if inj := fsys.Injected(); len(inj) != 1 || inj[0].Op != 4 {
		t.Fatalf("injected = %v, want rename fault at op 4", inj)
	}
}

// TestCrashFreezesEverything: after the kill op, every operation (reads
// included) fails with ErrCrashed, the hook fires exactly once, and the
// on-disk state keeps whatever was durable before the kill.
func TestCrashFreezesEverything(t *testing.T) {
	dir := t.TempDir()
	hooks := 0
	fsys := New(Plan{Seed: 9, Rules: []Rule{{Kind: Crash, At: 6}}}, func() { hooks++ })
	if err := writeThrough(fsys, dir, "a.json", []byte("first")); err != nil {
		t.Fatal(err) // ops 1-4, before the kill
	}
	err := writeThrough(fsys, dir, "b.json", []byte("second")) // dies at op 6 (the write)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !fsys.Crashed() {
		t.Fatal("FS not marked crashed")
	}
	if hooks != 1 {
		t.Fatalf("crash hook fired %d times", hooks)
	}
	if _, err := fsys.ReadFile(filepath.Join(dir, "a.json")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v, want ErrCrashed", err)
	}
	if err := writeThrough(fsys, dir, "c.json", []byte("third")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v, want ErrCrashed", err)
	}
	// The frozen directory still holds the pre-kill survivor.
	got, err := os.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil || string(got) != "first" {
		t.Fatalf("survivor = %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "c.json")); !os.IsNotExist(err) {
		t.Fatal("post-crash write reached the disk")
	}
}

// TestKillOpSeededAndBounded: KillOp is deterministic per seed and always
// lands in [1, maxOp]; different seeds spread across the range.
func TestKillOpSeededAndBounded(t *testing.T) {
	seen := map[int]bool{}
	for seed := uint64(1); seed <= 64; seed++ {
		op := KillOp(seed, 40)
		if op != KillOp(seed, 40) {
			t.Fatalf("KillOp(%d) not deterministic", seed)
		}
		if op < 1 || op > 40 {
			t.Fatalf("KillOp(%d, 40) = %d out of range", seed, op)
		}
		seen[op] = true
	}
	if len(seen) < 10 {
		t.Fatalf("64 seeds hit only %d distinct kill ops", len(seen))
	}
}
