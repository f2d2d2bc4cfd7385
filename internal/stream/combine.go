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
// Plan.Limits). The combined graph has its own kind, cost-row and
// kernel tables, copied from the tenants' (clones share each kernel
// with its original), and its own execution state, so running the
// combined graph leaves the subgraphs reusable.
func Combine(subs ...*runtime.Graph) (*runtime.Graph, *Plan, error) {
	if len(subs) == 0 {
		return nil, nil, fmt.Errorf("stream: Combine needs at least one subgraph")
	}
	g := runtime.NewGraph()
	var tenantOf []int
	var acc []runtime.Access
	for k, sub := range subs {
		// A tenant's handle and task i are the combined graph's hbase+i
		// and tbase+i.
		hbase, tbase := len(g.Handles), len(g.Tasks)
		for _, h := range sub.Handles {
			g.NewDataOn(fmt.Sprintf("t%d/%s", k, h.Name), h.Bytes, h.Home)
		}
		for _, t := range sub.Tasks {
			acc = acc[:0]
			for _, u := range t.Uses() {
				acc = append(acc, runtime.Access{Handle: g.Handles[hbase+int(u.Handle)], Mode: u.Mode})
			}
			g.Submit(runtime.TaskSpec{
				Kind:      t.Kind(),
				Footprint: t.Footprint,
				Flops:     t.Flops,
				Priority:  t.Priority,
				Cost:      t.Cost(),
				Run:       t.Kernel(),
				Accesses:  acc,
			})
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
