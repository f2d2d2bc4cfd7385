package runtime_test

import (
	"fmt"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// ExampleGraph_Submit shows the Sequential-Task-Flow API: declare
// handles, submit tasks with access modes, and let the runtime infer
// the dependency graph.
func ExampleGraph_Submit() {
	g := runtime.NewGraph()
	x := g.NewData("x", 8)

	producer := g.Submit(runtime.TaskSpec{
		Kind: "produce", Cost: []float64{0.001},
		Accesses: []runtime.Access{{Handle: x, Mode: runtime.W}},
	})
	consumer := g.Submit(runtime.TaskSpec{
		Kind: "consume", Cost: []float64{0.001},
		Accesses: []runtime.Access{{Handle: x, Mode: runtime.R}},
	})

	fmt.Println("consumer depends on", len(g.Preds(consumer)), "task:", g.Tasks[g.Preds(consumer)[0]].Kind())
	fmt.Println("producer releases", len(producer.Succs()), "task:", g.Tasks[producer.Succs()[0]].Kind())
	// Output:
	// consumer depends on 1 task: produce
	// producer releases 1 task: consume
}

// ExampleThreadedEngine_Run executes a graph on real goroutine workers
// under the MultiPrio scheduler.
func ExampleThreadedEngine_Run() {
	g := runtime.NewGraph()
	h := g.NewData("acc", 8)
	sum := 0
	for i := 1; i <= 3; i++ {
		v := i
		g.Submit(runtime.TaskSpec{
			Kind: "add", Cost: []float64{1e-6},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.RW}},
			Run:      func(w runtime.WorkerInfo) { sum += v },
		})
	}
	eng, err := runtime.NewThreadedEngine(platform.CPUOnly(2), core.New(core.Defaults()))
	if err != nil {
		panic(err)
	}
	if _, err := eng.Run(g); err != nil {
		panic(err)
	}
	fmt.Println("sum =", sum)
	// Output:
	// sum = 6
}

// ExampleAccessMode_commute shows the Commute mode: the updates carry
// no mutual ordering, only the final reader waits for all of them.
func ExampleAccessMode_commute() {
	g := runtime.NewGraph()
	h := g.NewData("forces", 8)
	for i := 0; i < 3; i++ {
		g.Submit(runtime.TaskSpec{
			Kind: "accumulate", Cost: []float64{0.001},
			Accesses: []runtime.Access{{Handle: h, Mode: runtime.Commute}},
		})
	}
	reader := g.Submit(runtime.TaskSpec{
		Kind: "report", Cost: []float64{0.001},
		Accesses: []runtime.Access{{Handle: h, Mode: runtime.R}},
	})
	deps := 0
	for _, t := range g.Tasks[:3] {
		deps += t.NumPreds()
	}
	fmt.Println("dependencies among accumulators:", deps)
	fmt.Println("reader waits for:", reader.NumPreds(), "accumulators")
	// Output:
	// dependencies among accumulators: 0
	// reader waits for: 3 accumulators
}
