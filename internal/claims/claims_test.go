package claims

import (
	"testing"

	"emuchick/internal/experiments"
	"emuchick/internal/metrics"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("claim count = %d", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if c.ID == "" || c.Section == "" || c.Statement == "" || len(c.Reads) == 0 || c.Check == nil {
			t.Fatalf("claim %q incomplete", c.ID)
		}
		if seen[c.ID] {
			t.Fatalf("duplicate claim id %q", c.ID)
		}
		seen[c.ID] = true
		for _, id := range c.Reads {
			if _, err := experiments.ByID(id); err != nil {
				t.Fatalf("claim %q reads %v", c.ID, err)
			}
		}
	}
	if _, err := ByID("stream-plateau"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown claim accepted")
	}
}

// TestAllClaimsPassQuick is the quick-scale scorecard: every paper claim
// must hold in the reproduction. Each experiment runs once, and each check
// sees only the figures of the experiments its Reads names, so a check that
// reads a figure it does not declare fails here.
func TestAllClaimsPassQuick(t *testing.T) {
	ran := map[string][]*metrics.Figure{}
	for _, c := range All() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			figs := map[string]*metrics.Figure{}
			for _, id := range c.Reads {
				if ran[id] == nil {
					e, err := experiments.ByID(id)
					if err != nil {
						t.Fatal(err)
					}
					if ran[id], err = e.Run(experiments.WithScale(experiments.QuickScale), experiments.WithTrials(2)); err != nil {
						t.Fatal(err)
					}
				}
				for _, f := range ran[id] {
					figs[f.ID] = f
				}
			}
			v, err := c.Check(figs, true)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Pass {
				t.Fatalf("claim failed: %s\n  paper: %s\n  measured: %s",
					c.ID, c.Statement, v.Detail)
			}
			t.Log(v.Detail)
		})
	}
}
