package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"emuchick/internal/fault"
	"emuchick/internal/sim"
	"emuchick/internal/storefs"
	"emuchick/internal/trace"
)

// These tests derive their field lists from OptionFields, the
// classification table optionsFingerprint and jobspec's content address
// share, instead of duplicating the in/out lists by hand. They pin both
// halves of it: every Options field is classified, In fields change the
// fingerprint and are refused on resume, and Out fields do neither. Adding
// an Options field without extending the table, or a table entry without
// extending the mutation maps, fails them.

func mustPlan(t *testing.T) *fault.Plan {
	t.Helper()
	plan, err := fault.Parse("migstall=10us/100us", 7)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// fieldMutations sets each Options field to a value different from the
// zero-ish baseline the sensitivity test starts from.
func fieldMutations(t *testing.T) map[string]func(*Options) {
	return map[string]func(*Options){
		"Trials":         func(o *Options) { o.Trials = 5 },
		"Quick":          func(o *Options) { o.Quick = !o.Quick },
		"Faults":         func(o *Options) { o.Faults = mustPlan(t) },
		"FaultSeed":      func(o *Options) { o.FaultSeed = 9 },
		"Parallel":       func(o *Options) { o.Parallel = 7 },
		"Observer":       func(o *Options) { o.Observer = trace.FuncObserver{OnEvent: func(trace.Event) {}} },
		"SampleInterval": func(o *Options) { o.SampleInterval = sim.Microsecond },
		"Checkpoint":     func(o *Options) { o.Checkpoint = "elsewhere.ckpt" },
		"CellTimeout":    func(o *Options) { o.CellTimeout = time.Minute },
		"Retries":        func(o *Options) { o.Retries = 3 },
		"ctx":            func(o *Options) { o.ctx = context.Background() },
		"ckptFS":         func(o *Options) { o.ckptFS = storefs.OS{} },
		"ckpt":           func(o *Options) { o.ckpt = &checkpoint{} },
		"maxEvents":      func(o *Options) { o.maxEvents = 1 },
		"ckptHook":       func(o *Options) { o.ckptHook = func(int) {} },
	}
}

// sortedFieldNames returns the classification table's keys in a fixed order.
func sortedFieldNames() []string {
	var names []string
	for name := range OptionFields {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestFingerprintTableMatchesOptionsStruct: the exported table, the Options
// struct, and the test mutation map must name exactly the same fields.
func TestFingerprintTableMatchesOptionsStruct(t *testing.T) {
	rt := reflect.TypeOf(Options{})
	structFields := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		structFields[rt.Field(i).Name] = true
	}
	muts := fieldMutations(t)
	for _, name := range sortedFieldNames() {
		if !structFields[name] {
			t.Errorf("table entry %q matches no Options field", name)
		}
		if _, ok := muts[name]; !ok {
			t.Errorf("no mutation for field %q; extend fieldMutations so its sensitivity is tested", name)
		}
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if _, ok := OptionFields[name]; !ok {
			t.Errorf("Options field %q is not classified in OptionFields", name)
		}
	}
}

// TestFingerprintSensitivityMatchesTable: mutating a field changes
// optionsFingerprint exactly when the table classifies it In.
func TestFingerprintSensitivityMatchesTable(t *testing.T) {
	muts := fieldMutations(t)
	base := Options{Trials: 1}
	baseFP := optionsFingerprint("fig4", base)
	for _, name := range sortedFieldNames() {
		mut, ok := muts[name]
		if !ok {
			continue // already reported by the coverage test
		}
		o := base
		mut(&o)
		changed := optionsFingerprint("fig4", o) != baseFP
		wantChanged := OptionFields[name] == OptionIn
		if changed != wantChanged {
			t.Errorf("field %s (classified %v): fingerprint changed = %v, want %v",
				name, OptionFields[name], changed, wantChanged)
		}
	}
}

// TestCheckpointResumeHonorsFingerprintTable is the end-to-end half: against
// a complete log, a resume differing in an In field must be refused with a
// fingerprint error, and a resume differing in any Out field must be
// accepted and replay byte-identical figures.
func TestCheckpointResumeHonorsFingerprintTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig4.ckpt")
	base := ckptFigureBytes(t, "fig4", path) // complete log at quick, trials=1
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	resumeMutations := map[string]Option{
		"Trials":         WithTrials(2),
		"Quick":          WithScale(FullScale),
		"Faults":         WithFaultPlan(mustPlan(t)),
		"FaultSeed":      WithFaultSeed(9),
		"Parallel":       WithParallel(2),
		"Observer":       WithObserver(trace.FuncObserver{OnEvent: func(trace.Event) {}}),
		"SampleInterval": WithSampleInterval(sim.Microsecond),
		"CellTimeout":    WithCellTimeout(time.Minute),
		"Retries":        WithRetries(3),
		"ctx":            WithContext(context.Background()),
		"ckptFS":         WithCheckpointFS(storefs.OS{}),
		"maxEvents":      optionFunc(func(o *Options) { o.maxEvents = 1 }),
		"ckptHook":       optionFunc(func(o *Options) { o.ckptHook = func(int) {} }),
	}
	skipped := map[string]string{
		"Checkpoint": "the log's own path: pointing at a different path opens a different log, not a resume of this one",
		"ckpt":       "internal handle; Run resolves it from Checkpoint itself",
	}
	for _, name := range sortedFieldNames() {
		class := OptionFields[name]
		t.Run(name, func(t *testing.T) {
			if reason, ok := skipped[name]; ok {
				t.Skip(reason)
			}
			opt, ok := resumeMutations[name]
			if !ok {
				t.Fatalf("no resume mutation for field %q; extend the table", name)
			}
			figs, err := e.Run(WithScale(QuickScale), WithTrials(1), WithCheckpoint(path), opt)
			if class == OptionIn {
				if err == nil {
					t.Fatalf("resume with a different %s was accepted; In fields must refuse", name)
				}
				if !strings.Contains(err.Error(), "fingerprint") {
					t.Fatalf("unexpected refusal message: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("resume with a different %s was refused (%v); Out fields must replay", name, err)
			}
			if got := figuresToJSON(t, figs); !bytes.Equal(base, got) {
				t.Fatalf("resume with a different %s is not byte-identical:\nbase: %s\ngot:  %s", name, base, got)
			}
		})
	}
	// A different experiment against the same file must also be refused.
	e6, err := ByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e6.Run(WithScale(QuickScale), WithTrials(1), WithCheckpoint(path)); err == nil {
		t.Fatal("resume under a different experiment was accepted")
	}
}
