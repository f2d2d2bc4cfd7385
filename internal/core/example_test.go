package core_test

import (
	"fmt"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// Example runs the MultiPrio scheduler on a simulated heterogeneous
// node: GPU-favourable work lands on the GPU, CPU-only work on the
// CPUs, and the makespan reflects the overlap.
func Example() {
	m, err := platform.NewHeteroNode("demo", 3, 10, 1, 1000, 0, 10e9, platform.Config{})
	if err != nil {
		panic(err)
	}
	g := runtime.NewGraph()
	for i := 0; i < 4; i++ {
		// 1s on a CPU core, 10ms on the GPU.
		g.Submit(runtime.TaskSpec{Kind: "accel", Cost: []float64{1, 0.01}})
		// 10ms, CPU only.
		g.Submit(runtime.TaskSpec{Kind: "host", Cost: []float64{0.01}})
	}
	res, err := sim.Run(m, g, core.New(core.Defaults()))
	if err != nil {
		panic(err)
	}
	gpuTasks := 0
	for _, sp := range res.Trace.Spans {
		if m.Units[sp.Worker].Arch == platform.ArchGPU {
			gpuTasks++
		}
	}
	fmt.Println("accelerated tasks on the GPU:", gpuTasks)
	fmt.Printf("makespan under 100ms: %v\n", res.Makespan < 0.1)
	// Output:
	// accelerated tasks on the GPU: 4
	// makespan under 100ms: true
}

// ExampleConfig shows the ablation switches mirroring the paper's
// design choices.
func ExampleConfig() {
	cfg := core.Defaults()
	fmt.Println("locality window n =", cfg.LocalityWindow)
	fmt.Println("epsilon =", cfg.Epsilon)
	cfg.DisableEviction = true // the Fig. 4 "without eviction" variant
	fmt.Println("eviction disabled:", cfg.DisableEviction)
	// Output:
	// locality window n = 10
	// epsilon = 0.8
	// eviction disabled: true
}
