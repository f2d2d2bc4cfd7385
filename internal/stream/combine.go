package stream

import (
	"fmt"

	"multiprio/internal/runtime"
)

// Combine merges per-tenant subgraphs into one multi-tenant graph by
// replaying each tenant's STF submission sequence — handles first, then
// tasks in submission order with the same access sequences, so the
// combined graph infers exactly the edges each subgraph had. Explicit
// Declare edges that STF inference cannot reproduce are re-declared.
// Tenants share no handles, so no cross-tenant edges exist: the
// combined DAG is the disjoint union, with task IDs renumbered by
// concatenation order.
//
// The returned plan maps every combined task to its tenant, with zero
// arrivals and unbounded limits (fill via ArrivalSpec.Generate and
// Plan.Limits). Clones share Run with the originals but own their
// execution state, so running the combined graph leaves the subgraphs
// reusable.
func Combine(subs ...*runtime.Graph) (*runtime.Graph, *Plan, error) {
	if len(subs) == 0 {
		return nil, nil, fmt.Errorf("stream: Combine needs at least one subgraph")
	}
	g := runtime.NewGraph()
	var tenantOf []int
	for k, sub := range subs {
		// A tenant's handle and task i are the combined graph's hbase+i
		// and tbase+i.
		hbase, tbase := int64(len(g.Handles)), len(g.Tasks)
		for _, h := range sub.Handles {
			g.NewDataOn(fmt.Sprintf("t%d/%s", k, h.Name), h.Bytes, h.Home)
		}
		for _, t := range sub.Tasks {
			nt := &runtime.Task{
				Kind:      t.Kind,
				Footprint: t.Footprint,
				Flops:     t.Flops,
				Priority:  t.Priority,
				Cost:      append([]float64(nil), t.Cost...),
				Run:       t.Run,
			}
			nt.Accesses = make([]runtime.Access, len(t.Accesses))
			for i, a := range t.Accesses {
				h := a.Handle
				if h == nil || h.ID < 0 || h.ID >= int64(len(sub.Handles)) || sub.Handles[h.ID] != h {
					return nil, nil, fmt.Errorf("stream: tenant %d task %d accesses a handle foreign to its subgraph", k, t.ID)
				}
				nt.Accesses[i] = runtime.Access{Handle: g.Handles[hbase+h.ID], Mode: a.Mode}
			}
			g.Submit(nt)
			tenantOf = append(tenantOf, k)
		}
		// Re-declare edges STF inference did not reproduce (explicit
		// Graph.Declare control dependencies in the subgraph).
		for _, t := range sub.Tasks {
			nt := g.Tasks[tbase+int(t.ID)]
			for _, p := range sub.Preds(t) {
				g.Declare(g.Tasks[tbase+int(p)], nt)
			}
		}
	}
	return g, NewPlan(tenantOf, len(subs)), nil
}
