package oracle

import (
	"strings"
	"testing"

	"multiprio/internal/apps/randdag"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/heft"
	"multiprio/internal/sim"
)

// staticRun executes a fault-free pinned replay and returns everything
// a StaticCheck needs. The check itself is assembled per test (and
// tampered with) from the plan.
func staticRun(t *testing.T) (*runtime.Graph, *sim.Result, *heft.Plan) {
	t.Helper()
	m := testMachine(t)
	g := randdag.Build(randdag.Params{Layers: 6, Width: 8, CommuteShare: 0.2, Machine: m, Seed: 13})
	hs := heft.NewStatic(heft.RankUpward)
	res, err := sim.Run(m, g, hs, runtime.WithMemEvents())
	if err != nil {
		t.Fatal(err)
	}
	return g, res, hs.Plan()
}

// checkFor assembles a fresh StaticCheck from the plan with deep-copied
// slices, so each tamper mutates its own copy.
func checkFor(p *heft.Plan) *StaticCheck {
	sc := &StaticCheck{
		Assignment:  append([]platform.UnitID(nil), p.Assignment...),
		Finish:      append([]float64(nil), p.Finish...),
		Makespan:    p.Makespan,
		SlackFactor: heft.DefaultSlackFactor,
	}
	for _, ord := range p.Order {
		sc.Order = append(sc.Order, append([]int64(nil), ord...))
	}
	return sc
}

func TestStaticCheckCleanRun(t *testing.T) {
	g, res, p := staticRun(t)
	if err := Check(g, res.Trace, Options{
		OverflowBytes: res.OverflowBytes, Static: checkFor(p),
	}); err != nil {
		t.Fatalf("clean pinned replay rejected: %v", err)
	}
}

func TestStaticCheckTampers(t *testing.T) {
	g, res, p := staticRun(t)
	// A worker with at least two planned tasks, for the order swap.
	var busyW int
	for w, ord := range p.Order {
		if len(ord) >= 2 {
			busyW = w
			break
		}
	}
	tampers := []struct {
		name    string
		mutate  func(*StaticCheck)
		wantErr string
	}{
		{
			"flipped assignment",
			func(sc *StaticCheck) {
				id := sc.Order[busyW][0]
				other := (busyW + 1) % len(p.Order)
				sc.Assignment[id] = platform.UnitID(other)
				// Keep the plan well-formed: move the order entry too, so
				// the tamper surfaces as a placement violation, not a
				// malformed plan.
				sc.Order[busyW] = sc.Order[busyW][1:]
				sc.Order[other] = append([]int64{id}, sc.Order[other]...)
			},
			"plan assigns worker",
		},
		{
			"swapped order",
			func(sc *StaticCheck) {
				ord := sc.Order[busyW]
				ord[0], ord[1] = ord[1], ord[0]
			},
			"against plan order",
		},
		{
			"forged kill repair",
			func(sc *StaticCheck) {
				sc.Repairs = []heft.RepairEvent{{
					At: 0, Worker: platform.UnitID(busyW), Reason: "kill",
					Trigger: -1, Tasks: []int64{sc.Order[busyW][0]},
				}}
			},
			"no kill was applied",
		},
		{
			"forged slack repair",
			func(sc *StaticCheck) {
				id := sc.Order[busyW][0]
				sc.Repairs = []heft.RepairEvent{{
					At: 0, Worker: platform.UnitID(busyW), Reason: "slack",
					Trigger: id, Tasks: []int64{id},
				}}
			},
			"within the",
		},
		{
			"double diversion",
			func(sc *StaticCheck) {
				id := sc.Order[busyW][0]
				sc.Kills = []runtime.AppliedKill{{Unit: platform.UnitID(busyW), At: 0}}
				sc.Repairs = []heft.RepairEvent{
					{At: 0, Worker: platform.UnitID(busyW), Reason: "kill", Trigger: -1, Tasks: []int64{id}},
					{At: 0, Worker: platform.UnitID(busyW), Reason: "kill", Trigger: -1, Tasks: []int64{id}},
				}
			},
			"two repair events",
		},
		{
			"repair poaching another worker's task",
			func(sc *StaticCheck) {
				var foreign int64 = -1
				for _, ord2 := range sc.Order {
					for _, id := range ord2 {
						if sc.Assignment[id] != platform.UnitID(busyW) {
							foreign = id
						}
					}
				}
				if foreign < 0 {
					return // degenerate plan; the empty-tamper fallthrough fails the test
				}
				sc.Kills = []runtime.AppliedKill{{Unit: platform.UnitID(busyW), At: 0}}
				sc.Repairs = []heft.RepairEvent{{
					At: 0, Worker: platform.UnitID(busyW), Reason: "kill",
					Trigger: -1, Tasks: []int64{foreign},
				}}
			},
			"planned on worker",
		},
		{
			"truncated plan",
			func(sc *StaticCheck) { sc.Assignment = sc.Assignment[:len(sc.Assignment)-1] },
			"covers",
		},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			sc := checkFor(p)
			tc.mutate(sc)
			err := Check(g, res.Trace, Options{OverflowBytes: res.OverflowBytes, Static: sc})
			if err == nil {
				t.Fatalf("tamper %q accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("tamper %q: error %q does not mention %q", tc.name, err, tc.wantErr)
			}
		})
	}
}
