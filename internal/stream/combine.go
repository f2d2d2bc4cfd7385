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
// Plan.Limits). Clones share Run/Payload with the originals but own
// their execution state, so running the combined graph leaves the
// subgraphs reusable.
func Combine(subs ...*runtime.Graph) (*runtime.Graph, *Plan, error) {
	if len(subs) == 0 {
		return nil, nil, fmt.Errorf("stream: Combine needs at least one subgraph")
	}
	g := runtime.NewGraph()
	var tenantOf []int
	for k, sub := range subs {
		hmap := make(map[*runtime.DataHandle]*runtime.DataHandle, len(sub.Handles))
		for _, h := range sub.Handles {
			nh := g.NewDataOn(fmt.Sprintf("t%d/%s", k, h.Name), h.Bytes, h.Home)
			nh.Payload = h.Payload
			hmap[h] = nh
		}
		tmap := make(map[*runtime.Task]*runtime.Task, len(sub.Tasks))
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
				nh := hmap[a.Handle]
				if nh == nil {
					return nil, nil, fmt.Errorf("stream: tenant %d task %d accesses a handle foreign to its subgraph", k, t.ID)
				}
				nt.Accesses[i] = runtime.Access{Handle: nh, Mode: a.Mode}
			}
			g.Submit(nt)
			tmap[t] = nt
			tenantOf = append(tenantOf, k)
		}
		// Re-declare edges STF inference did not reproduce (explicit
		// Graph.Declare control dependencies in the subgraph).
		for _, t := range sub.Tasks {
			nt := tmap[t]
			for _, p := range sub.Preds(t) {
				g.Declare(tmap[sub.Tasks[p]], nt)
			}
		}
	}
	return g, NewPlan(tenantOf, len(subs)), nil
}
