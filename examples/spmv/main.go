// SpMV: reproduce Fig. 9a's comparison interactively — the same synthetic
// 5-point Laplacian multiplied under the three Emu data layouts of Fig. 3
// (local, 1D-striped, custom 2D), showing how placement drives thread
// migration and therefore bandwidth ("smart thread migration", section V-A).
package main

import (
	"fmt"
	"log"

	"emuchick"
)

func main() {
	cfg := emuchick.HardwareChick()
	const gridN = 50 // 2500x2500 Laplacian with 5 diagonals

	type row struct {
		layout emuchick.SpMVLayout
		res    emuchick.Result
	}
	var rows []row
	for _, layout := range []emuchick.SpMVLayout{emuchick.SpMVLocal, emuchick.SpMV1D, emuchick.SpMV2D} {
		m, err := emuchick.Run(cfg, "spmv", emuchick.KernelParams{
			GridN: gridN, Layout: layout.String(), Grain: 16,
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{layout, m.Result()})
	}

	fmt.Printf("SpMV on %s: %dx%d Laplacian (n=%d), grain 16\n\n",
		cfg.Name, gridN*gridN, gridN*gridN, gridN)
	fmt.Printf("%-7s %12s %14s\n", "layout", "time", "bandwidth")
	for _, r := range rows {
		fmt.Printf("%-7s %12v %11.1f MB/s\n", r.layout, r.res.Elapsed, r.res.MBps())
	}
	base := rows[0].res.MBps()
	fmt.Printf("\nspeedups over local: 1d %.1fx, 2d %.1fx\n",
		rows[1].res.MBps()/base, rows[2].res.MBps()/base)
	fmt.Println("\nlocal serializes on one nodelet's channel; 1D migrates on nearly")
	fmt.Println("every nonzero; the two-stage 2D layout keeps whole rows local and")
	fmt.Println("never migrates — the ordering Fig. 9a reports.")

	// Grain-size sensitivity (the Emu side of the paper's grain finding).
	fmt.Printf("\n%-10s %14s\n", "grain", "2d bandwidth")
	for _, grain := range []int{4, 16, 64, 1024, 1 << 20} {
		m, err := emuchick.Run(cfg, "spmv", emuchick.KernelParams{
			GridN: gridN, Layout: emuchick.SpMV2D.String(), Grain: grain,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %11.1f MB/s\n", grain, m.Result().MBps())
	}
	fmt.Println("\nsmall grains win on the Emu (the paper's best is 16 elements per")
	fmt.Println("spawn); a huge grain degenerates to serial execution.")
}
