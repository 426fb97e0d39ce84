// Command chickinfo prints the machine configurations the reproduction
// models, with the derived peak rates that anchor the calibration — the
// quickest way to check what each preset assumes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"emuchick/internal/machine"
	"emuchick/internal/report"
	"emuchick/internal/xeon"
)

func main() {
	fs := flag.NewFlagSet("chickinfo", flag.ContinueOnError)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := info(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chickinfo:", err)
		os.Exit(1)
	}
}

func info(w io.Writer) error {
	emuTab := report.NewTable("config", "nodes", "nodelets", "GCs/nl", "thr/GC",
		"core MHz", "ns/word", "mem lat", "mig/s (M)", "mig lat", "peak GB/s")
	for _, cfg := range []machine.Config{
		machine.HardwareChick(),
		machine.SimMatched(),
		machine.FullSpeed(1),
		machine.FullSpeed(8),
	} {
		emuTab.AddRow(
			cfg.Name,
			fmt.Sprint(cfg.Nodes),
			fmt.Sprint(cfg.TotalNodelets()),
			fmt.Sprint(cfg.GCsPerNodelet),
			fmt.Sprint(cfg.ThreadsPerGC),
			fmt.Sprintf("%d", cfg.CoreHz/1e6),
			fmt.Sprintf("%.1f", cfg.WordAccessTime.Seconds()*1e9),
			cfg.MemLatency.String(),
			fmt.Sprintf("%.0f", cfg.MigrationsPerSec/1e6),
			cfg.MigrationLatency.String(),
			fmt.Sprintf("%.2f", cfg.PeakMemoryBytesPerSec()/1e9),
		)
	}
	fmt.Fprintln(w, "Emu machine models (see DESIGN.md section 4 for calibration):")
	if _, err := emuTab.WriteTo(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	cpuTab := report.NewTable("config", "cores", "HW threads", "GHz",
		"L2 KiB", "L3 MiB", "channels", "GB/s/ch", "peak GB/s")
	for _, cfg := range []xeon.Config{xeon.SandyBridgeXeon(), xeon.HaswellXeon()} {
		cpuTab.AddRow(
			cfg.Name,
			fmt.Sprint(cfg.Cores),
			fmt.Sprint(cfg.HardwareThreads()),
			fmt.Sprintf("%.1f", float64(cfg.CoreHz)/1e9),
			fmt.Sprint(cfg.L2Bytes>>10),
			fmt.Sprint(cfg.L3Bytes>>20),
			fmt.Sprint(cfg.Channels),
			fmt.Sprintf("%.1f", cfg.ChannelBytesPerSec/1e9),
			fmt.Sprintf("%.1f", cfg.PeakMemoryBytesPerSec()/1e9),
		)
	}
	fmt.Fprintln(w, "Xeon comparison models:")
	if _, err := cpuTab.WriteTo(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Counter definitions (per nodelet, as in the vendor simulator):")
	defs := report.NewTable("counter", "meaning")
	defs.AddRow("LocalSpawns", "threads created here by a resident parent")
	defs.AddRow("RemoteSpawns", "threads created here by a remote parent (remote spawn)")
	defs.AddRow("MigrationsIn/Out", "thread contexts arriving at / leaving this nodelet")
	defs.AddRow("LocalReads", "8-byte word reads served by this nodelet's channel")
	defs.AddRow("LocalWrites", "8-byte word writes from resident threads")
	defs.AddRow("RemoteStores", "posted stores arriving from other nodelets")
	defs.AddRow("Atomics", "memory-side atomic operations served here")
	defs.AddRow("ComputeCycles", "non-memory core cycles charged here")
	_, err := defs.WriteTo(w)
	return err
}
