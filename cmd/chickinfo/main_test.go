package main

import (
	"strings"
	"testing"
)

func TestInfoOutput(t *testing.T) {
	var b strings.Builder
	if err := info(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"emu-chick-hw",
		"emu-sim-matched",
		"emu-fullspeed-8node",
		"xeon-e5-2670-sandybridge",
		"xeon-e7-4850v3-haswell",
		"MigrationsIn/Out",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q", want)
		}
	}
	// The Sandy Bridge peak must render as the paper's 51.2 GB/s.
	if !strings.Contains(out, "51.2") {
		t.Error("51.2 GB/s nominal missing")
	}
}
