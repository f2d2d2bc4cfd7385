// Quickstart: the Sequential-Task-Flow API on the real threaded engine.
//
// The program registers data handles, submits tasks with access modes —
// the runtime infers the DAG exactly like StarPU's STF model — and
// executes them on goroutine workers under the MultiPrio scheduler.
// Kernels are ordinary Go functions.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

func main() {
	g := runtime.NewGraph()

	// Three counters, each updated by a chain of increments; a final
	// task reads all of them. The runtime infers every dependency from
	// the access modes.
	const chains, steps = 3, 5
	counters := make([]*int, chains)
	handles := make([]*runtime.DataHandle, chains)
	for c := 0; c < chains; c++ {
		counters[c] = new(int)
		handles[c] = g.NewData(fmt.Sprintf("counter%d", c), 8)
	}

	for s := 0; s < steps; s++ {
		for c := 0; c < chains; c++ {
			c := c
			g.Submit(runtime.TaskSpec{
				Kind: "inc",
				Cost: []float64{1e-6}, // CPU-only scheduling estimate
				Accesses: []runtime.Access{
					{Handle: handles[c], Mode: runtime.RW},
				},
				Run: func(w runtime.WorkerInfo) { *counters[c]++ },
			})
		}
	}
	total := new(int)
	hTotal := g.NewData("total", 8)
	acc := []runtime.Access{{Handle: hTotal, Mode: runtime.W}}
	for c := 0; c < chains; c++ {
		acc = append(acc, runtime.Access{Handle: handles[c], Mode: runtime.R})
	}
	g.Submit(runtime.TaskSpec{
		Kind:     "sum",
		Cost:     []float64{1e-6},
		Accesses: acc,
		Run: func(w runtime.WorkerInfo) {
			for c := 0; c < chains; c++ {
				*total += *counters[c]
			}
		},
	})

	eng, err := runtime.NewThreadedEngine(platform.CPUOnly(4), core.New(core.Defaults()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %d tasks on 4 workers in %.3fms\n", len(g.Tasks), res.Makespan*1e3)
	fmt.Printf("total = %d (want %d)\n", *total, chains*steps)
	if *total != chains*steps {
		log.Fatal("dependency inference failed")
	}
	fmt.Println("every increment chain was serialized, the sum ran last: STF works.")
}
