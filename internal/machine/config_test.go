package machine

import (
	"math"
	"strings"
	"testing"
)

func TestPresetConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{
		HardwareChick(),
		HardwareChickNodes(8),
		SimMatched(),
		FullSpeed(1),
		FullSpeed(8),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %q invalid: %v", cfg.Name, err)
		}
	}
}

func TestValidateCatchesEveryField(t *testing.T) {
	base := HardwareChick()
	mutations := []struct {
		field string
		mut   func(*Config)
	}{
		{"Nodes", func(c *Config) { c.Nodes = 0 }},
		{"NodeletsPerNode", func(c *Config) { c.NodeletsPerNode = 0 }},
		{"GCsPerNodelet", func(c *Config) { c.GCsPerNodelet = 0 }},
		{"ThreadsPerGC", func(c *Config) { c.ThreadsPerGC = -1 }},
		{"CoreHz", func(c *Config) { c.CoreHz = 0 }},
		{"WordAccessTime", func(c *Config) { c.WordAccessTime = 0 }},
		{"MemLatency", func(c *Config) { c.MemLatency = -1 }},
		{"MigrationsPerSec", func(c *Config) { c.MigrationsPerSec = 0 }},
		{"ContextBytes", func(c *Config) { c.ContextBytes = 0 }},
		{"FabricBytesPerSec", func(c *Config) { c.FabricBytesPerSec = 0 }},
		{"MemIssueCycles", func(c *Config) { c.MemIssueCycles = 0 }},
	}
	for _, m := range mutations {
		c := base
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation of %s not caught", m.field)
		} else if !strings.Contains(err.Error(), base.Name) {
			t.Errorf("error for %s does not name the config: %v", m.field, err)
		}
	}
}

func TestTopologyHelpers(t *testing.T) {
	c := FullSpeed(8)
	if c.TotalNodelets() != 64 {
		t.Fatalf("TotalNodelets = %d, want 64", c.TotalNodelets())
	}
	if c.ContextsPerNodelet() != 4*256 {
		t.Fatalf("ContextsPerNodelet = %d", c.ContextsPerNodelet())
	}
	if c.NodeOf(0) != 0 || c.NodeOf(7) != 0 || c.NodeOf(8) != 1 || c.NodeOf(63) != 7 {
		t.Fatal("NodeOf mapping wrong")
	}
}

func TestHardwareChickMatchesPaperScales(t *testing.T) {
	c := HardwareChick()
	// One Gossamer core per nodelet with 64 threadlets (section III-A).
	if c.GCsPerNodelet != 1 || c.ThreadsPerGC != 64 {
		t.Fatal("prototype core/thread counts wrong")
	}
	if c.CoreHz != 150e6 {
		t.Fatal("prototype clock should be 150 MHz")
	}
	// 8 narrow channels per node; per-channel peak should be in the
	// NCDRAM ballpark the paper describes (~2 GB/s raw, less sustained).
	ch := c.ChannelBytesPerSec()
	if ch < 100e6 || ch > 2.2e9 {
		t.Fatalf("channel rate %v B/s out of NCDRAM range", ch)
	}
	// Node peak should make ~1.2 GB/s STREAM achievable.
	peak := c.PeakMemoryBytesPerSec()
	if peak < 1.2e9 {
		t.Fatalf("node peak %v B/s cannot support the measured 1.2 GB/s STREAM", peak)
	}
}

func TestSimMatchedDiffersOnlyInMigrationEngine(t *testing.T) {
	hw, sm := HardwareChick(), SimMatched()
	if sm.MigrationsPerSec <= hw.MigrationsPerSec {
		t.Fatal("simulator migration engine should be faster than hardware")
	}
	// Ratio should reflect 16 M/s vs 9 M/s pair rates.
	ratio := sm.MigrationsPerSec / hw.MigrationsPerSec
	if math.Abs(ratio-16.0/9.0) > 0.01 {
		t.Fatalf("migration rate ratio = %.3f, want 16/9", ratio)
	}
	// Memory subsystem must be identical so STREAM validates (Fig. 10).
	if sm.WordAccessTime != hw.WordAccessTime || sm.MemLatency != hw.MemLatency ||
		sm.CoreHz != hw.CoreHz || sm.ThreadsPerGC != hw.ThreadsPerGC {
		t.Fatal("SimMatched memory/core model must match hardware")
	}
}

func TestFullSpeedIsDesignConfig(t *testing.T) {
	c := FullSpeed(8)
	if c.CoreHz != 300e6 || c.GCsPerNodelet != 4 || c.ThreadsPerGC != 256 {
		t.Fatal("full-speed config does not match the design parameters")
	}
	if c.WordAccessTime >= HardwareChick().WordAccessTime {
		t.Fatal("full-speed memory should be faster than DDR4-1600 prototype")
	}
}
