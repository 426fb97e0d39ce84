package kernels

import (
	"reflect"
	"testing"

	"emuchick/internal/machine"
)

func TestRegistryNames(t *testing.T) {
	want := []string{"chase", "gups", "pingpong", "spmv", "stream"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		k, err := ByName(name)
		if err != nil || k.Name != name || k.Run == nil || len(k.Labels) == 0 {
			t.Fatalf("ByName(%q) = %+v, %v", name, k, err)
		}
	}
	if _, err := ByName("linpack"); err == nil {
		t.Fatal("unknown kernel resolved")
	}
}

// TestRegistryMatchesTypedEntryPoints pins losslessness: invoking a kernel
// through the registry with the flattened params produces exactly the typed
// entry point's result.
func TestRegistryMatchesTypedEntryPoints(t *testing.T) {
	cfg := machine.HardwareChick()

	sc := StreamConfig{ElemsPerNodelet: 64, Nodelets: 8, Threads: 16}
	direct, err := StreamAdd(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := ByName("stream")
	m, err := k.Run(cfg, Params{Elems: 64, Nodelets: 8, Threads: 16, Strategy: sc.Strategy.String()})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Result(); got != direct {
		t.Fatalf("registry stream %+v != direct %+v", got, direct)
	}

	pc := PingPongConfig{Threads: 4, Iterations: 50, NodeletA: 0, NodeletB: 1}
	ppDirect, err := PingPong(cfg, pc)
	if err != nil {
		t.Fatal(err)
	}
	kp, _ := ByName("pingpong")
	pm, err := kp.Run(cfg, Params{Threads: 4, Iters: 50, NodeletA: 0, NodeletB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.PingPong(); got != ppDirect {
		t.Fatalf("registry pingpong %+v != direct %+v", got, ppDirect)
	}
}

// TestRegistryRejectsBadEnums: the adapters surface enum parse errors
// instead of panicking or silently defaulting.
func TestRegistryRejectsBadEnums(t *testing.T) {
	cfg := machine.HardwareChick()
	cases := map[string]Params{
		"stream": {Elems: 16, Nodelets: 8, Threads: 4, Strategy: "bogus"},
		"chase":  {Elems: 64, Block: 8, Threads: 4, Mode: "bogus", Seed: 1},
		"spmv":   {GridN: 8, Layout: "3d", Grain: 16},
	}
	for name, p := range cases {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(cfg, p); err == nil {
			t.Errorf("%s accepted %+v", name, p)
		}
	}
}
