package emuchick_test

import (
	"fmt"
	"log"

	"emuchick"
)

// The simulation is deterministic, so these examples assert exact output.

// sumBody loads words 0..n-1 in order and sums them. A Body issues one
// operation at a time; when the operation parks, Step returns false and is
// called again once the operation has completed.
type sumBody struct {
	at     func(i int) emuchick.Addr
	n, i   int
	loaded bool
	sum    uint64
}

func (b *sumBody) Step(t *emuchick.Thread) bool {
	for ; b.i < b.n; b.i++ {
		if !b.loaded {
			b.loaded = true
			if t.CLoad(b.at(b.i)) { // every remote word migrates the thread
				return false
			}
		}
		b.sum += t.Value()
		b.loaded = false
	}
	return true
}

func ExampleNewSystem() {
	sys := emuchick.NewSystem(emuchick.HardwareChick())
	arr := sys.Mem.AllocStriped(16) // word i lives on nodelet i mod 8
	for i := 0; i < 16; i++ {
		sys.Mem.Write(arr.At(i), uint64(i))
	}
	body := &sumBody{at: arr.At, n: 16}
	if _, err := sys.Run(body); err != nil {
		log.Fatal(err)
	}
	fmt.Println("sum:", body.sum)
	fmt.Println("migrations:", sys.Counters.TotalMigrations())
	// Output:
	// sum: 120
	// migrations: 15
}

func ExampleRunPingPong() {
	res, err := emuchick.RunPingPong(emuchick.HardwareChick(), emuchick.PingPongConfig{
		Threads: 64, Iterations: 500, NodeletA: 0, NodeletB: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardware migration engine: %.1f M migrations/s\n", res.MigrationsPerSec/1e6)
	// Output:
	// hardware migration engine: 9.0 M migrations/s
}

// homeBody records the nodelet its worker starts on.
type homeBody struct {
	nodelets []int
	id       int
}

func (b homeBody) Step(t *emuchick.Thread) bool {
	b.nodelets[b.id] = t.Nodelet()
	return true
}

// tree is a root body that drives a spawn tree until it has joined.
type tree struct{ emuchick.Driver }

func (r tree) Step(t *emuchick.Thread) bool { return !r.Drive(t) }

func ExampleNewWorkers() {
	sys := emuchick.NewSystem(emuchick.HardwareChick())
	nodelets := make([]int, 8)
	workers := emuchick.NewWorkers(8, 8, emuchick.SerialRemoteSpawn, func(id int) emuchick.Body {
		return homeBody{nodelets, id}
	})
	if _, err := sys.Run(tree{workers}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("worker home nodelets:", nodelets)
	// Output:
	// worker home nodelets: [0 1 2 3 4 5 6 7]
}

func ExampleRunSpMV() {
	// Fig. 9a's point: the 2D layout never migrates.
	res, err := emuchick.RunSpMV(emuchick.HardwareChick(), emuchick.SpMVConfig{
		GridN: 16, Layout: emuchick.SpMV2D, GrainNNZ: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified:", res.Bytes > 0)
	// Output:
	// verified: true
}
