package experiments

import (
	"fmt"
	"io"

	"multiprio/internal/core"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Table2Result reproduces the paper's Table II: the gain-heuristic
// worked example with three tasks and two architecture types.
type Table2Result struct {
	TaskNames []string
	// Delta[a][i] is δ(t_i, a) in ms; Gain[a][i] the computed gain.
	Delta [2][3]float64
	Gain  [2][3]float64
	HD    [2]float64
}

// RunTable2 recomputes Table II through the actual scheduler code path.
func RunTable2(*Ctx) (*Table2Result, error) {
	m := &platform.Machine{
		Name:  "two-arch",
		Archs: []platform.Arch{{Name: "a1"}, {Name: "a2"}},
		Mems:  []platform.MemNode{{Name: "m1"}, {Name: "m2"}},
		Units: []platform.Unit{
			{Name: "w1", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "w2", Arch: 1, Mem: 1, SpeedFactor: 1},
		},
		LinkMatrix: [][]platform.Link{
			{{}, {BandwidthBytes: 1e9}},
			{{BandwidthBytes: 1e9}, {}},
		},
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	res := &Table2Result{TaskNames: []string{"t_A", "t_B", "t_C"}}
	res.Delta = [2][3]float64{{1, 5, 20}, {20, 10, 10}}
	g := runtime.NewGraph()
	tasks := make([]*runtime.Task, 3)
	for i := range tasks {
		tasks[i] = g.Submit(runtime.TaskSpec{
			Kind: res.TaskNames[i],
			Cost: []float64{res.Delta[0][i], res.Delta[1][i]},
		})
	}
	sched := core.New(core.Defaults())
	sched.Init(runtime.NewEnv(m, g))
	for _, t := range tasks {
		sched.Push(t)
	}
	for a := 0; a < 2; a++ {
		res.HD[a] = sched.HD(platform.ArchID(a))
		for i := range tasks {
			res.Gain[a][i] = sched.Gain(tasks[i], platform.ArchID(a))
		}
	}
	return res, nil
}

// Print renders the table in the paper's layout.
func (r *Table2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table II: gain heuristic worked example (3 tasks, 2 architecture types)")
	fmt.Fprintf(w, "%-14s", "")
	for _, n := range r.TaskNames {
		fmt.Fprintf(w, "%10s", n)
	}
	fmt.Fprintln(w)
	rule(w, 44)
	for a := 0; a < 2; a++ {
		fmt.Fprintf(w, "delta(t, a%d)  ", a+1)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "%8.0fms", r.Delta[a][i])
		}
		fmt.Fprintln(w)
	}
	for a := 0; a < 2; a++ {
		fmt.Fprintf(w, "gain(t, a%d)   ", a+1)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, "%10.3f", r.Gain[a][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "hd(a1) = hd(a2) = %.0f\n", r.HD[0])
}
