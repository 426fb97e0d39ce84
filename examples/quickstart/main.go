// Quickstart: build a simulated Emu Chick, stripe an array across its
// nodelets, spawn workers with a remote-spawn tree, and sum the array in
// parallel — the smallest program that exercises migration-aware
// allocation, remote spawning, memory-side atomics, and the machine
// counters.
package main

import (
	"fmt"
	"log"

	"emuchick"
)

// summer is one worker: it loads words i, i+step, ... below n, then posts
// their sum into the accumulator with a memory-side atomic. Each Thread
// operation reports parked=true when the threadlet must wait; Step then
// returns false and is called again once the operation has completed.
type summer struct {
	at           func(i int) emuchick.Addr
	i, n, step   int
	acc          emuchick.Addr
	sum          uint64
	loaded, done bool
}

func (w *summer) Step(t *emuchick.Thread) bool {
	for ; w.i < w.n; w.i += w.step {
		if !w.loaded {
			w.loaded = true
			if t.CLoad(w.at(w.i)) {
				return false
			}
		}
		w.sum += t.Value()
		w.loaded = false
	}
	if !w.done {
		w.done = true
		return !t.CRemoteAdd(w.acc, w.sum)
	}
	return true
}

// root is the main threadlet: it spawns the workers and returns once the
// tree has joined.
type root struct{ workers emuchick.Driver }

func (r *root) Step(t *emuchick.Thread) bool { return !r.workers.Drive(t) }

func main() {
	cfg := emuchick.HardwareChick()
	sys := emuchick.NewSystem(cfg)

	// 65536 8-byte words, word i on nodelet i mod 8 — the analogue of
	// the Emu intrinsic mw_malloc1dlong.
	const n = 1 << 16
	arr := sys.Mem.AllocStriped(n)
	var want uint64
	for i := 0; i < n; i++ {
		sys.Mem.Write(arr.At(i), uint64(i))
		want += uint64(i)
	}
	// The accumulator lives on nodelet 0; workers update it with posted
	// memory-side atomics, so no thread ever migrates toward it.
	acc := sys.Mem.AllocLocal(0, 1)

	const workers = 64 // 8 per nodelet
	elapsed, err := sys.Run(&root{emuchick.NewWorkers(8, workers, emuchick.RecursiveRemoteSpawn,
		func(id int) emuchick.Body {
			// Worker id serves stripe id mod 8, so every Load is local; the
			// 8 workers of a nodelet interleave over it.
			nl, rank := id%8, id/8
			return &summer{at: arr.At, i: nl + 8*rank, n: n, step: 8 * (workers / 8), acc: acc.At(0)}
		})})
	if err != nil {
		log.Fatal(err)
	}
	got := sys.Mem.Read(acc.At(0))
	if got != want {
		log.Fatalf("sum = %d, want %d", got, want)
	}

	bytes := int64(n) * 8
	fmt.Printf("machine        %s\n", cfg.Name)
	fmt.Printf("summed         %d words -> %d (correct)\n", n, got)
	fmt.Printf("simulated time %v\n", elapsed)
	fmt.Printf("bandwidth      %.1f MB/s\n", float64(bytes)/elapsed.Seconds()/1e6)
	fmt.Printf("threads        %d spawned, max %d live\n",
		sys.Counters.ThreadsSpawned, sys.Counters.MaxLiveThreads)
	fmt.Printf("migrations     %d (all loads were local by construction)\n",
		sys.Counters.TotalMigrations())
	fmt.Printf("word traffic   %d words across %d nodelets\n",
		sys.Counters.TotalWords(), sys.Nodelets())

	// The same sum with a naive local-spawn strategy: workers start on
	// nodelet 0 and migrate to their data, and the spawn loop serializes
	// on one nodelet — the contrast behind Fig. 5.
	sys2 := emuchick.NewSystem(cfg)
	arr2 := sys2.Mem.AllocStriped(n)
	for i := 0; i < n; i++ {
		sys2.Mem.Write(arr2.At(i), uint64(i))
	}
	acc2 := sys2.Mem.AllocLocal(0, 1)
	elapsed2, err := sys2.Run(&root{emuchick.NewWorkers(8, workers, emuchick.SerialSpawn,
		func(id int) emuchick.Body {
			nl, rank := id%8, id/8
			return &summer{at: arr2.At, i: nl + 8*rank, n: n, step: 8 * (workers / 8), acc: acc2.At(0)}
		})})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserial_spawn comparison: %v (%.2fx slower), %d migrations\n",
		elapsed2, elapsed2.Seconds()/elapsed.Seconds(), sys2.Counters.TotalMigrations())
}
