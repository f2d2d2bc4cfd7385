package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Fig3Result reproduces the paper's Fig. 3: the NOD criticality worked
// example where two ready tasks T2, T3 score 2.5 and 1.0.
type Fig3Result struct {
	NODT2 float64
	NODT3 float64
}

// RunFig3 builds the example DAG and evaluates NOD through the
// scheduler's code path.
func RunFig3(*Ctx) (*Fig3Result, error) {
	m := platform.CPUOnly(2)
	g := runtime.NewGraph()
	mk := func(kind string) *runtime.Task {
		return g.Submit(runtime.TaskSpec{Kind: kind, Cost: []float64{1}})
	}
	t2, t3 := mk("T2"), mk("T3")
	t4, t5, t6, t7 := mk("T4"), mk("T5"), mk("T6"), mk("T7")
	g.Declare(t2, t4)
	g.Declare(t2, t5)
	g.Declare(t2, t6)
	g.Declare(t3, t6)
	g.Declare(t3, t7)
	g.Declare(t6, t7)
	sched := core.New(core.Defaults())
	sched.Init(runtime.NewEnv(m, g))

	return &Fig3Result{
		NODT2: sched.NOD(t2, platform.ArchCPU),
		NODT3: sched.NOD(t3, platform.ArchCPU),
	}, nil
}

// Print renders the figure's annotation.
func (r *Fig3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 3: NOD criticality worked example")
	fmt.Fprintf(w, "NOD(T2) = %.2f (paper: 2.5)\n", r.NODT2)
	fmt.Fprintf(w, "NOD(T3) = %.2f (paper: 1.0)\n", r.NODT3)
	fmt.Fprintln(w, "T2 has the higher criticality: releasing it unlocks more downstream work.")
}
