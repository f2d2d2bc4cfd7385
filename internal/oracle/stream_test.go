package oracle

import (
	"strings"
	"testing"

	"multiprio/internal/core"
	"multiprio/internal/runtime"
	"multiprio/internal/sim"
	"multiprio/internal/stream"
)

// runStreamSim executes a batch of independent kernels streamed through
// the Fair wrapper: two tenants, uniform arrivals dense enough that the
// in-flight limit defers some admissions.
func runStreamSim(t *testing.T) (*runtime.Graph, *sim.Result, *stream.Plan, *stream.Fair) {
	t.Helper()
	g := runtime.NewGraph()
	for i := 0; i < 12; i++ {
		g.Submit(runtime.TaskSpec{Kind: "work", Cost: []float64{0.01, 0.001}})
	}
	plan := stream.SplitEven(len(g.Tasks), 2)
	spec := stream.UniformSpec(5, 2, 2000, stream.Uniform, 0)
	if err := spec.Generate(plan); err != nil {
		t.Fatal(err)
	}
	plan.Limits[0], plan.Limits[1] = 2, 2
	fair := stream.NewFair(core.New(core.Defaults()), plan)
	res, err := sim.Run(testMachine(t), g, fair,
		runtime.WithMemEvents(),
		runtime.WithArrivals(plan.Arrivals))
	if err != nil {
		t.Fatal(err)
	}
	return g, res, plan, fair
}

func streamOpts(res *sim.Result, plan *stream.Plan, fair *stream.Fair) Options {
	return Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &StreamCheck{Plan: plan, Admissions: fair.AdmissionLog()},
	}
}

func TestStreamCheckAcceptsStreamedRun(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	if err := Check(g, res.Trace, streamOpts(res, plan, fair)); err != nil {
		t.Fatalf("valid streamed run rejected: %v", err)
	}
	// The scenario must actually exercise deferrals, or the starvation
	// replay has nothing to verify.
	if s := fair.StreamStats(); s.Deferred[0]+s.Deferred[1] == 0 {
		t.Fatal("streamed scenario produced no deferred admission; mis-tuned")
	}
}

// A span moved before its arrival time must be caught by the gating
// check.
func TestStreamCheckCatchesEarlyStart(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	var victim int64 = -1
	for id, at := range plan.Arrivals {
		if at > 0 {
			victim = int64(id)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no task with a positive arrival time")
	}
	for i := range res.Trace.Spans {
		s := &res.Trace.Spans[i]
		if s.TaskID == victim {
			shift := s.End - s.Start
			s.Start, s.End = 0, shift
		}
	}
	err := Check(g, res.Trace, streamOpts(res, plan, fair))
	if err == nil || !strings.Contains(err.Error(), "before its arrival") {
		t.Fatalf("early start not caught: %v", err)
	}
}

// A forged admission log entry claiming a later admission than the
// task's actual start must be caught.
func TestStreamCheckCatchesStartBeforeAdmission(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	log := fair.AdmissionLog()
	log[0].AdmittedAt = res.Makespan + 1
	log[0].PushedAt = res.Makespan + 1
	err := Check(g, res.Trace, Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &StreamCheck{Plan: plan, Admissions: log},
	})
	if err == nil || !strings.Contains(err.Error(), "before its admission") {
		t.Fatalf("start-before-admission not caught: %v", err)
	}
}

// An admission log overfilled beyond the tenant limit must be caught by
// the in-flight sweep.
func TestStreamCheckCatchesOverAdmission(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	// Claim every task of tenant 0 was admitted at t=0: with limit 2 and
	// 6 tasks, the sweep must see more than 2 in flight at once.
	log := fair.AdmissionLog()
	for i := range log {
		if log[i].Tenant == 0 {
			log[i].PushedAt, log[i].AdmittedAt = 0, 0
		}
	}
	// Keep arrival/push consistency out of the way.
	arr := append([]float64(nil), plan.Arrivals...)
	tampered := *plan
	tampered.Arrivals = make([]float64, len(arr))
	err := Check(g, res.Trace, Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &StreamCheck{Plan: &tampered, Admissions: log},
	})
	if err == nil || !strings.Contains(err.Error(), "over its limit") {
		t.Fatalf("over-admission not caught: %v", err)
	}
}

// A delayed admission while the tenant was not saturated is starvation
// and must be caught by the replay.
func TestStreamCheckCatchesStarvation(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	log := fair.AdmissionLog()
	// Find a deferred admission and pretend it was pushed much earlier:
	// the enlarged wait window now overlaps sub-saturated intervals.
	var idx = -1
	for i := range log {
		if log[i].AdmittedAt > log[i].PushedAt {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no deferred admission in the scenario")
	}
	log[idx].PushedAt = 0
	arr := append([]float64(nil), plan.Arrivals...)
	arr[log[idx].Task] = 0
	tampered := *plan
	tampered.Arrivals = arr
	err := Check(g, res.Trace, Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &StreamCheck{Plan: &tampered, Admissions: log},
	})
	if err == nil || !strings.Contains(err.Error(), "starvation") {
		t.Fatalf("starvation not caught: %v", err)
	}
}

// A tenant census that disagrees with the plan (a task's span deleted)
// must be caught — though the base exactly-once check fires first; the
// census check still guards plans whose TenantOf is inconsistent.
func TestStreamCheckCatchesMissingAdmission(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	log := fair.AdmissionLog()
	log = log[:len(log)-1]
	err := Check(g, res.Trace, Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &StreamCheck{Plan: plan, Admissions: log},
	})
	if err == nil || !strings.Contains(err.Error(), "without an admission log entry") {
		t.Fatalf("missing admission not caught: %v", err)
	}
}

// An invalid plan (wrong coverage) must be reported rather than
// silently skipped.
func TestStreamCheckRejectsBadPlan(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	bad := *plan
	bad.TenantOf = bad.TenantOf[:len(bad.TenantOf)-1]
	err := Check(g, res.Trace, Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &StreamCheck{Plan: &bad, Admissions: fair.AdmissionLog()},
	})
	if err == nil || !strings.Contains(err.Error(), "plan invalid") {
		t.Fatalf("bad plan not caught: %v", err)
	}
}

// FIFO inversion within a tenant — a later push admitted earlier — must
// be caught.
func TestStreamCheckCatchesFIFOInversion(t *testing.T) {
	g, res, plan, fair := runStreamSim(t)
	log := fair.AdmissionLog()
	// Pick two same-tenant entries and swap their push times so the one
	// admitted first now appears pushed later.
	var first, second = -1, -1
	for i := range log {
		if log[i].Tenant != 0 {
			continue
		}
		if first < 0 {
			first = i
		} else if log[i].AdmittedAt > log[first].AdmittedAt {
			second = i
			break
		}
	}
	if first < 0 || second < 0 {
		t.Fatal("could not find two orderable admissions for tenant 0")
	}
	log[first].PushedAt = log[second].AdmittedAt + 1
	log[first].AdmittedAt = log[second].AdmittedAt + 1
	err := Check(g, res.Trace, Options{
		OverflowBytes: res.OverflowBytes,
		Stream:        &StreamCheck{Plan: plan, Admissions: log},
	})
	if err == nil {
		t.Fatal("FIFO inversion not caught")
	}
}
