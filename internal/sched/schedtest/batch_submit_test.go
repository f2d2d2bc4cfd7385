package schedtest

import (
	"bytes"
	"testing"

	"multiprio/internal/runtime"
	"multiprio/internal/sim"
)

// rebuild replays a built graph in segments: handles recreated in
// registration order, tasks re-submitted with accesses remapped onto the
// fresh handles. With mixed unset every task goes through sequential
// Submit; with mixed set the first and last thirds are SubmitBatch calls
// around a middle third of Submit calls, and the very last task is a
// Submit past the second batch. declare adds explicit edges after the
// middle segment — onto the newest task and onto an older one, whose
// predecessor row has others behind it — and one after the last task, so
// the second batch lands on a graph already extended by Submit and
// Declare. A batch schedules byte-identically to the equivalent Submit
// sequence, in any interleaving; this is the replay that pins it.
func rebuild(g *runtime.Graph, mixed, declare bool) *runtime.Graph {
	out := runtime.NewGraph()
	handles := make([]*runtime.DataHandle, len(g.Handles))
	for i, h := range g.Handles {
		handles[i] = out.NewDataOn(h.Name, h.Bytes, h.Home)
	}
	segment := func(tasks []*runtime.Task, batch bool) {
		specs := make([]runtime.TaskSpec, len(tasks))
		for i, t := range tasks {
			acc := make([]runtime.Access, len(t.Uses()))
			for j, u := range t.Uses() {
				acc[j] = runtime.Access{Handle: handles[u.Handle], Mode: u.Mode}
			}
			specs[i] = runtime.TaskSpec{
				Kind:      t.Kind(),
				Footprint: t.Footprint,
				Flops:     t.Flops,
				Priority:  t.Priority,
				Accesses:  acc,
				Cost:      t.Cost(),
				Run:       t.Kernel(),
			}
		}
		if batch {
			out.SubmitBatch(specs)
			return
		}
		for _, s := range specs {
			out.Submit(runtime.TaskSpec{Kind: s.Kind, Footprint: s.Footprint, Flops: s.Flops,
				Priority: s.Priority, Accesses: s.Accesses, Cost: s.Cost, Run: s.Run})
		}
	}
	n := len(g.Tasks)
	a, b := n/3, 2*n/3
	segment(g.Tasks[:a], mixed)
	segment(g.Tasks[a:b], false)
	if declare && b >= 4 {
		out.Declare(out.Tasks[0], out.Tasks[b-1])
		out.Declare(out.Tasks[1], out.Tasks[b/2])
	}
	last := max(b, n-1)
	segment(g.Tasks[b:last], mixed)
	segment(g.Tasks[last:], false)
	if declare && b >= 4 {
		out.Declare(out.Tasks[b-1], out.Tasks[n-1])
	}
	return out
}

// TestSubmitBatchMatchesSequential runs every conformance workload —
// all four built through Graph.SubmitBatch — against a sequential
// re-submission of the same tasks, across the full 8-policy matrix, and
// requires byte-identical canonical traces. Together with the golden
// digests (recorded when the apps still used sequential Submit) this
// proves the batch path changes nothing but the allocation count. The
// mixed-mode pair (batch → Submit → Declare → second batch against the
// same script through Submit alone) extends the proof to graphs that
// keep growing after a batch.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	m := conformanceMachine()
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				run := func(what string, g *runtime.Graph) []byte {
					res, err := sim.Run(m, g, pol.mk(), runtime.WithMemEvents())
					if err != nil {
						t.Fatalf("%s run: %v", what, err)
					}
					return res.Trace.Canonical()
				}
				batch := w.build()
				if !bytes.Equal(run("batch-built", batch), run("sequential rebuild", rebuild(batch, false, false))) {
					t.Fatalf("canonical traces diverge between SubmitBatch and sequential Submit")
				}
				if !bytes.Equal(run("mixed rebuild", rebuild(batch, true, true)), run("sequential rebuild with Declare", rebuild(batch, false, true))) {
					t.Fatalf("canonical traces diverge between batch/Submit/Declare/batch and sequential Submit")
				}
			})
		}
	}
}
