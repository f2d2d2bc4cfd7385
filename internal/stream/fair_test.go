package stream

import (
	"sync"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// fakeInner records the pushes it receives, in order.
type fakeInner struct {
	mu     sync.Mutex
	pushed []*runtime.Task
}

func (f *fakeInner) Name() string          { return "fake" }
func (f *fakeInner) Init(env *runtime.Env) {}
func (f *fakeInner) Push(t *runtime.Task) {
	f.mu.Lock()
	f.pushed = append(f.pushed, t)
	f.mu.Unlock()
}
func (f *fakeInner) Pop(w runtime.WorkerInfo) *runtime.Task         { return nil }
func (f *fakeInner) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {}

func (f *fakeInner) ids() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int64, len(f.pushed))
	for i, t := range f.pushed {
		out[i] = t.ID
	}
	return out
}

// fairFixture builds a graph of n independent tasks, a single-tenant
// plan with the given limit, and an initialized Fair over a fake inner.
func fairFixture(t *testing.T, n, limit int) (*runtime.Graph, *Plan, *Fair, *fakeInner) {
	t.Helper()
	m, err := platform.NewHeteroNode("fairt", 2, 10, 0, 100, 8*platform.MiB, 5e9, platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := runtime.NewGraph()
	for i := 0; i < n; i++ {
		g.Submit(runtime.TaskSpec{Kind: "k", Cost: []float64{1}})
	}
	plan := SplitEven(n, 1)
	plan.Limits[0] = limit
	inner := &fakeInner{}
	fair := NewFair(inner, plan)
	fair.Init(runtime.NewEnv(m, g))
	return g, plan, fair, inner
}

func eq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFairAdmissionBound checks the in-flight bound and FIFO admission:
// with limit 2, pushing 5 tasks forwards exactly 2, and each completion
// admits the next pending task in push order.
func TestFairAdmissionBound(t *testing.T) {
	g, _, fair, inner := fairFixture(t, 5, 2)
	w := runtime.WorkerInfo{}
	for _, task := range g.Tasks {
		fair.Push(task)
	}
	if got := inner.ids(); !eq(got, []int64{0, 1}) {
		t.Fatalf("after 5 pushes at limit 2, inner saw %v, want [0 1]", got)
	}
	fair.TaskDone(g.Tasks[0], w)
	if got := inner.ids(); !eq(got, []int64{0, 1, 2}) {
		t.Fatalf("after first completion, inner saw %v, want [0 1 2]", got)
	}
	fair.TaskDone(g.Tasks[2], w)
	fair.TaskDone(g.Tasks[1], w)
	if got := inner.ids(); !eq(got, []int64{0, 1, 2, 3, 4}) {
		t.Fatalf("after three completions, inner saw %v, want FIFO [0 1 2 3 4]", got)
	}
	stats := fair.StreamStats()
	if stats.Admitted[0] != 5 || stats.Deferred[0] != 3 || stats.MaxPending[0] != 3 {
		t.Fatalf("stats = %+v, want 5 admitted, 3 deferred, max pending 3", stats)
	}
	log := fair.AdmissionLog()
	if len(log) != 5 {
		t.Fatalf("admission log has %d entries, want 5", len(log))
	}
	for _, a := range log {
		if a.AdmittedAt < 0 {
			t.Fatalf("task %d never admitted: %+v", a.Task, a)
		}
	}
}

// TestFairRetryPassthrough checks that a re-push of an already admitted
// task (fault retry) bypasses admission even while the tenant is at its
// limit, without double-counting the in-flight slot.
func TestFairRetryPassthrough(t *testing.T) {
	g, _, fair, inner := fairFixture(t, 4, 2)
	w := runtime.WorkerInfo{}
	for _, task := range g.Tasks {
		fair.Push(task)
	}
	// Tenant is saturated (tasks 0, 1 in flight; 2, 3 pending). A retry
	// of task 1 must go straight through.
	fair.Push(g.Tasks[1])
	if got := inner.ids(); !eq(got, []int64{0, 1, 1}) {
		t.Fatalf("retry push: inner saw %v, want [0 1 1]", got)
	}
	// The retry did not consume a second slot: one completion admits
	// exactly one pending task.
	fair.TaskDone(g.Tasks[0], w)
	if got := inner.ids(); !eq(got, []int64{0, 1, 1, 2}) {
		t.Fatalf("after completion, inner saw %v, want [0 1 1 2]", got)
	}
	if log := fair.AdmissionLog(); len(log) != 4 {
		t.Fatalf("admission log has %d entries, want 4 (retries are not re-admissions)", len(log))
	}
}

// TestFairUnboundedTransparent checks that with no limits every push is
// forwarded inline with PushedAt == AdmittedAt — the transparency the
// t=0 golden-equivalence proof builds on.
func TestFairUnboundedTransparent(t *testing.T) {
	g, _, fair, inner := fairFixture(t, 6, 0)
	for _, task := range g.Tasks {
		fair.Push(task)
	}
	if got := inner.ids(); !eq(got, []int64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("unbounded wrapper reordered or held pushes: %v", got)
	}
	for _, a := range fair.AdmissionLog() {
		if a.AdmittedAt != a.PushedAt {
			t.Fatalf("unbounded admission deferred task %d: %+v", a.Task, a)
		}
	}
	if s := fair.StreamStats(); s.Deferred[0] != 0 {
		t.Fatalf("unbounded wrapper deferred %d tasks", s.Deferred[0])
	}
}
