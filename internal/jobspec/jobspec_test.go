package jobspec

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/kernels"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	in := Spec{
		Kernel:     "chase",
		Machine:    Machine{Name: "fullspeed", Nodes: 4},
		Params:     kernels.Params{Elems: 2048, Block: 8, Threads: 128},
		Trials:     2,
		Faults:     "chan=4@2",
		Parallel:   3,
		Checkpoint: CheckpointPolicy{Path: "/tmp/x.ckpt"},
		QoS:        QoS{CellTimeout: Duration(30 * time.Second), Retries: 2},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed the spec:\nin:  %+v\nout: %+v", in, out)
	}
	// The duration serializes human-readable, and numeric nanoseconds are
	// accepted on the way in.
	if !strings.Contains(string(b), `"cell_timeout": "30s"`) && !strings.Contains(string(b), `"cell_timeout":"30s"`) {
		t.Fatalf("cell_timeout not serialized as a duration string: %s", b)
	}
	var numeric Spec
	if err := json.Unmarshal([]byte(`{"kernel":"gups","qos":{"cell_timeout":1000000000}}`), &numeric); err != nil {
		t.Fatal(err)
	}
	if time.Duration(numeric.QoS.CellTimeout) != time.Second {
		t.Fatalf("numeric cell_timeout = %v, want 1s", time.Duration(numeric.QoS.CellTimeout))
	}
}

func TestValidate(t *testing.T) {
	bad := map[string]Spec{
		"no target":             {},
		"both targets":          {Experiment: "fig4", Kernel: "gups"},
		"unknown experiment":    {Experiment: "fig999"},
		"unknown kernel":        {Kernel: "linpack"},
		"unknown scale":         {Experiment: "fig4", Scale: "medium"},
		"negative trials":       {Experiment: "fig4", Trials: -1},
		"negative parallel":     {Experiment: "fig4", Parallel: -2},
		"bad fault grammar":     {Experiment: "fig4", Faults: "chan="},
		"infinite fault factor": {Experiment: "fig4", Faults: "chan=Inf"},
		"unknown machine":       {Kernel: "gups", Machine: Machine{Name: "tpu"}},
		"bad strategy":          {Kernel: "stream", Params: kernels.Params{Strategy: "bogus"}},
		"bad shuffle mode":      {Kernel: "chase", Params: kernels.Params{Mode: "bogus"}},
		"bad spmv layout":       {Kernel: "spmv", Params: kernels.Params{Layout: "3d"}},
		"experiment w/ params":  {Experiment: "fig4", Params: kernels.Params{Threads: 4}},
		"experiment w/ machine": {Experiment: "fig4", Machine: Machine{Name: "hw"}},
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, s)
		}
	}
	good := []Spec{
		{Experiment: "fig4"},
		{Experiment: "fig4", Scale: ScaleQuick, Trials: 2, Parallel: 4},
		{Kernel: "gups"},
		{Kernel: "stream", Machine: Machine{Name: "sim"}, Params: kernels.Params{Threads: 16}},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("rejected %+v: %v", s, err)
		}
	}
}

func TestCanonicalDefaults(t *testing.T) {
	c := Spec{Experiment: "fig4"}.Canonical()
	if c.Scale != ScaleFull || c.Trials != 10 {
		t.Fatalf("full experiment defaults: %+v", c)
	}
	q := Spec{Experiment: "fig4", Scale: ScaleQuick}.Canonical()
	if q.Trials != 3 {
		t.Fatalf("quick experiment trials = %d, want 3", q.Trials)
	}
	k := Spec{Kernel: "gups"}.Canonical()
	if k.Machine.Name != "hw" || k.Machine.Nodes != 1 || k.Trials != 1 {
		t.Fatalf("kernel machine defaults: %+v", k)
	}
	if k.Params != kernels.DefaultParams() {
		t.Fatalf("kernel params not defaulted: %+v", k.Params)
	}
	// An explicit asymmetric nodelet pair survives defaulting.
	pp := Spec{Kernel: "pingpong", Params: kernels.Params{NodeletA: 2}}.Canonical()
	if pp.Params.NodeletA != 2 || pp.Params.NodeletB != 0 {
		t.Fatalf("explicit nodelet pair overwritten: %+v", pp.Params)
	}
}

// TestFingerprintWorkloadSensitivity pins the content-address contract:
// workload-shaping fields move the fingerprint, drive-side fields do not,
// and defaultable forms collide with their canonical spelling.
// TestFingerprintPinned pins absolute content addresses. emuserved keys
// every stored result by Fingerprint, so any change to these values
// re-keys the whole cache; a change must be deliberate, never a side
// effect of refactoring how the hash is fed.
func TestFingerprintPinned(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"fig4 quick trials 1", Spec{Experiment: "fig4", Scale: ScaleQuick, Trials: 1}, "71ef0207df96ae42"},
		{"fig6 defaults", Spec{Experiment: "fig6"}, "ea6b010fe5cdb8ad"},
		{"kernel gups", Spec{Kernel: "gups"}, "0ce1bebb0e8d1c6b"},
		{"degradation-chase faulted", Spec{Experiment: "degradation-chase", Scale: ScaleQuick,
			Faults: "migstall=10us/100us", FaultSeed: 7}, "c49bde0a656ff0dc"},
	}
	for _, c := range cases {
		if got := c.spec.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint() = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFingerprintWorkloadSensitivity(t *testing.T) {
	base := Spec{Experiment: "fig4"}
	fp := base.Fingerprint()

	same := map[string]Spec{
		"explicit full scale":     {Experiment: "fig4", Scale: ScaleFull},
		"explicit default trials": {Experiment: "fig4", Trials: 10},
		"parallel differs":        {Experiment: "fig4", Parallel: 7},
		"checkpoint differs":      {Experiment: "fig4", Checkpoint: CheckpointPolicy{Path: "x", Disable: true}},
		"qos differs":             {Experiment: "fig4", QoS: QoS{CellTimeout: Duration(time.Minute), Retries: 5}},
	}
	for name, s := range same {
		if got := s.Fingerprint(); got != fp {
			t.Errorf("%s: fingerprint moved (%s != %s) though the workload is identical", name, got, fp)
		}
	}
	diff := map[string]Spec{
		"quick scale":      {Experiment: "fig4", Scale: ScaleQuick},
		"other trials":     {Experiment: "fig4", Trials: 2},
		"faults":           {Experiment: "fig4", Faults: "chan=4@2"},
		"fault seed":       {Experiment: "fig4", Faults: "chan=4@2", FaultSeed: 9},
		"other experiment": {Experiment: "fig6"},
		"a kernel":         {Kernel: "gups"},
	}
	seen := map[string]string{"base": fp}
	for name, s := range diff {
		got := s.Fingerprint()
		for prev, prevFP := range seen {
			if got == prevFP {
				t.Errorf("%s collides with %s (%s)", name, prev, got)
			}
		}
		seen[name] = got
	}
	// Kernel jobs: params and machine are workload-shaping.
	kbase := Spec{Kernel: "gups"}.Fingerprint()
	if got := (Spec{Kernel: "gups", Params: kernels.DefaultParams()}).Fingerprint(); got != kbase {
		t.Errorf("explicit default params moved the kernel fingerprint")
	}
	if got := (Spec{Kernel: "gups", Params: kernels.Params{Updates: 99}}).Fingerprint(); got == kbase {
		t.Errorf("changed updates did not move the kernel fingerprint")
	}
	if got := (Spec{Kernel: "gups", Machine: Machine{Name: "fullspeed"}}).Fingerprint(); got == kbase {
		t.Errorf("changed machine did not move the kernel fingerprint")
	}
}

func TestFromFlagsSpec(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := FromFlags(fs, GroupSweep|GroupFaults|GroupCheckpoint|GroupQoS)
	err := fs.Parse([]string{
		"-trials", "4", "-quick", "-parallel", "2",
		"-faults", "chan=4@2", "-fault-seed", "7",
		"-checkpoint", "wal.ckpt", "-resume",
		"-cell-timeout", "45s", "-retries", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	s := f.Spec()
	if s.Trials != 4 || s.Scale != ScaleQuick || s.Parallel != 2 {
		t.Fatalf("sweep flags: %+v", s)
	}
	if s.Faults != "chan=4@2" || s.FaultSeed != 7 {
		t.Fatalf("fault flags: %+v", s)
	}
	if s.Checkpoint.Path != "wal.ckpt" || !f.Resume {
		t.Fatalf("checkpoint flags: %+v resume=%v", s.Checkpoint, f.Resume)
	}
	// -retries 0 means "no retries", which QoS encodes as -1 so the zero
	// value can keep meaning "default".
	if time.Duration(s.QoS.CellTimeout) != 45*time.Second || s.QoS.Retries != -1 {
		t.Fatalf("qos flags: %+v", s.QoS)
	}
	for _, form := range []Spec{s, s.Canonical()} {
		opts, err := form.Options()
		if err != nil {
			t.Fatal(err)
		}
		if got := experiments.ApplyOptions(opts...).Retries; got != 0 {
			t.Fatalf("%+v resolves to %d retries, want none", form.QoS, got)
		}
	}
}

// TestRunKernelMatchesDirectCall pins that the declarative path produces
// exactly what the typed entry point produces.
func TestRunKernelMatchesDirectCall(t *testing.T) {
	spec := Spec{
		Kernel: "gups",
		Params: kernels.Params{Elems: 64, Updates: 256, Threads: 8},
	}
	m, attempts, err := RunKernel(t.Context(), spec, nil)
	if err != nil || attempts != 1 {
		t.Fatalf("RunKernel: %v (attempts %d)", err, attempts)
	}
	k, cfg, params, err := spec.KernelPlan()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := k.Run(cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kernel != "gups" || len(m.Values) != len(direct.Values) {
		t.Fatalf("measurement shape: %+v vs %+v", m, direct)
	}
	for i := range m.Values {
		if m.Values[i] != direct.Values[i] {
			t.Fatalf("value %d differs: %v vs %v", i, m.Values[i], direct.Values[i])
		}
	}
}

// TestRefuseStaleCheckpoint: a non-empty log is only consumed under
// -resume; a missing or empty one is always fresh.
func TestRefuseStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	empty, held := filepath.Join(dir, "empty.ckpt"), filepath.Join(dir, "held.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(held, []byte(`{"type":"header"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path    string
		resume  bool
		refused bool
	}{
		{filepath.Join(dir, "missing.ckpt"), false, false},
		{empty, false, false},
		{held, false, true},
		{held, true, false},
	} {
		err := (&Flags{Checkpoint: tc.path, Resume: tc.resume}).RefuseStaleCheckpoint(tc.path)
		if (err != nil) != tc.refused {
			t.Errorf("%s resume=%v: err = %v, want refused=%v", filepath.Base(tc.path), tc.resume, err, tc.refused)
		}
		if err != nil && !strings.Contains(err.Error(), "-resume") {
			t.Errorf("refusal does not mention -resume: %v", err)
		}
	}
}

// TestRunKernelWatchdogRetries: a 1 ns cell timeout kills the first
// attempt, the one retry dies the same way, and the error is the
// watchdog's deadline.
func TestRunKernelWatchdogRetries(t *testing.T) {
	spec := Spec{
		Kernel: "gups",
		Params: kernels.Params{Elems: 64, Updates: 256, Threads: 8},
		QoS:    QoS{CellTimeout: Duration(time.Nanosecond), Retries: 1},
	}
	_, attempts, err := RunKernel(t.Context(), spec, nil)
	if attempts != 2 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunKernel = (attempts %d, %v), want 2 attempts and a deadline error", attempts, err)
	}
}

// FuzzSpec decodes arbitrary JSON bodies as specs. Canonical is a fixed
// point, a spec that validates has a canonical form that validates, and
// the fingerprint survives a JSON round trip and any change to the fields
// that only drive a run: parallel, the checkpoint policy and QoS.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if json.Unmarshal(body, &s) != nil {
			return
		}
		c := s.Canonical()
		if cc := c.Canonical(); cc != c {
			t.Fatalf("Canonical is not idempotent:\nonce:  %+v\ntwice: %+v", c, cc)
		}
		if s.Validate() == nil {
			if err := c.Validate(); err != nil {
				t.Fatalf("%+v validates, but its canonical form does not: %v", s, err)
			}
		}
		fp := s.Fingerprint()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var r Spec
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("%s does not decode: %v", b, err)
		}
		if got := r.Fingerprint(); got != fp {
			t.Fatalf("a JSON round trip moved the fingerprint %s to %s: %s", fp, got, b)
		}
		d := s
		d.Parallel++
		d.Checkpoint = CheckpointPolicy{Path: s.Checkpoint.Path + ".other", Disable: !s.Checkpoint.Disable}
		d.QoS = QoS{CellTimeout: s.QoS.CellTimeout + Duration(time.Second), Retries: s.QoS.Retries - 1}
		if got := d.Fingerprint(); got != fp {
			t.Fatalf("changing only parallel, checkpoint and qos moved the fingerprint %s to %s", fp, got)
		}
	})
}
