package runtime

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"

	"multiprio/internal/platform"
)

// NODStarted reports whether a NOD fill was started through e, which
// is every Env of its run, and NODFilled whether it has finished: the
// run's tests outside the package read them.
func NODStarted(e *Env) bool { return e.nodTable().rows != nil }
func NODFilled(e *Env) bool  { return e.nodTable().ready.Load() == int64(len(e.Graph.Tasks)) }

// recountNOD is Eq. 2 by a successor walk over CanRun and Graph.Preds.
func recountNOD(g *Graph, t *Task, a platform.ArchID) float64 {
	var nod float64
	for _, id := range t.Succs() {
		succ := g.Tasks[id]
		if !succ.CanRun(a) {
			continue
		}
		n := 0
		for _, p := range g.Preds(succ) {
			if g.Tasks[p].CanRun(a) {
				n++
			}
		}
		if n > 0 {
			nod += 1 / float64(n)
		}
	}
	return nod
}

// nodGraph is a random graph on three architectures: inferred edges
// from shared handles, declared edges on top (some made after later
// tasks, so a successor comes out of ID order in Succs), and tasks with
// every implementation set, including ones only the third architecture
// runs.
func nodGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	hs := make([]*DataHandle, 10)
	for i := range hs {
		hs[i] = g.NewData(fmt.Sprint("h", i), 8)
	}
	for i := 0; i < n; i++ {
		cost := make([]float64, 3)
		mask := 1 + rng.Intn(7)
		for a := range cost {
			if mask&(1<<a) != 0 {
				cost[a] = 1 + rng.Float64()
			}
		}
		mode := []AccessMode{R, W, RW, Commute}[rng.Intn(4)]
		g.Submit(TaskSpec{Kind: "k", Cost: cost, Accesses: []Access{
			{hs[rng.Intn(len(hs))], mode}, {hs[rng.Intn(len(hs))], R},
		}})
		if i > 2 && rng.Intn(3) == 0 {
			to := 1 + rng.Intn(i)
			g.Declare(g.Tasks[rng.Intn(to)], g.Tasks[to])
		}
	}
	return g
}

// threeArchs is a machine with one unit of each of three architectures.
func threeArchs() *platform.Machine {
	m := &platform.Machine{
		Name:  "three",
		Archs: []platform.Arch{{Name: "a0"}, {Name: "a1"}, {Name: "a2"}},
		Mems:  []platform.MemNode{{Name: "m0"}, {Name: "m1"}, {Name: "m2"}},
		Units: []platform.Unit{
			{Name: "u0", Arch: 0, Mem: 0, SpeedFactor: 1},
			{Name: "u1", Arch: 1, Mem: 1, SpeedFactor: 1},
			{Name: "u2", Arch: 2, Mem: 2, SpeedFactor: 1},
		},
	}
	m.LinkMatrix = make([][]platform.Link, len(m.Mems))
	for i := range m.LinkMatrix {
		m.LinkMatrix[i] = make([]platform.Link, len(m.Mems))
		for j := range m.LinkMatrix[i] {
			if i != j {
				m.LinkMatrix[i][j] = platform.Link{BandwidthBytes: 1e9}
			}
		}
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// checkNOD compares every entry of env's table with a recount, reading
// the tasks in the given order.
func checkNOD(t *testing.T, env *Env, order []int) {
	t.Helper()
	g := env.Graph
	for _, id := range order {
		task := g.Tasks[id]
		for a := range env.Machine.Archs {
			arch := platform.ArchID(a)
			if got, want := env.NOD(task, arch), recountNOD(g, task, arch); got != want {
				t.Fatalf("NOD(%d, %d) = %v, recount gives %v", id, a, got, want)
			}
		}
	}
}

// TestNODMatchesRecount: on graphs with declared edges and every
// implementation mask, each entry equals the recount with ==, whether
// the reader asks in ID order, in reverse (waiting on the last row
// first) or at random, with the fill on the only processor or beside
// the reader. The graph is read unvalidated, as a policy driven without
// an engine reads it: the fill brings the successor view up to date
// before it starts.
func TestNODMatchesRecount(t *testing.T) {
	m := threeArchs()
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		goruntime.GOMAXPROCS(procs)
		for seed := int64(1); seed <= 6; seed++ {
			g := nodGraph(seed, 40+int(seed)*300)
			order := make([]int, len(g.Tasks))
			for i := range order {
				order[i] = i
			}
			checkNOD(t, NewEnv(m, g), order)
			for i := range order {
				order[i] = len(order) - 1 - i
			}
			checkNOD(t, NewEnv(m, g), order)
			rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			checkNOD(t, NewEnv(m, g), order)
		}
	}
}

// TestNODConcurrentRunsOwnTables: two runs of one validated graph, read
// at once, each fill their own table, and both are right.
func TestNODConcurrentRunsOwnTables(t *testing.T) {
	m := threeArchs()
	g := nodGraph(9, 3000)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	envs := []*Env{NewEnv(m, g), NewEnv(m, g)}
	order := make([]int, len(g.Tasks))
	for i := range order {
		order[i] = i
	}
	var wg sync.WaitGroup
	for _, env := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkNOD(t, env, order)
		}()
	}
	wg.Wait()
	a, b := envs[0].nodTable(), envs[1].nodTable()
	if a == b || &a.rows[0] == &b.rows[0] {
		t.Fatal("two runs of one graph share a NOD table")
	}
	for _, env := range envs {
		env.nodTable().fill.Wait()
	}
}

// TestNODNodeEnvsShareOneFill: a cluster run's node Envs read the run's
// table — whichever asks first starts the one fill, here a node — and a
// node's answer is the run's.
func TestNODNodeEnvsShareOneFill(t *testing.T) {
	m := threeArchs()
	g := nodGraph(4, 500)
	env := NewEnv(m, g)
	nodes := []*Env{env.NodeEnv(m, 0), env.NodeEnv(m, 0)}
	task := g.Tasks[len(g.Tasks)/2]
	want := recountNOD(g, task, 1)
	if got := nodes[1].NOD(task, 1); got != want {
		t.Fatalf("node NOD = %v, recount %v", got, want)
	}
	if !NODStarted(env) {
		t.Fatal("a node's NOD call did not start the run's fill")
	}
	for _, e := range nodes {
		if e.nodTable() != env.nodTable() {
			t.Fatal("a node Env has a NOD table of its own")
		}
	}
	if got := env.NOD(task, 1); got != want {
		t.Fatalf("run NOD = %v, recount %v", got, want)
	}
	env.nodTable().fill.Wait()
}

// TestNODStartsOnFirstCall: an Env nobody asks allocates no table, and
// the table a fill allocates is the only one.
func TestNODStartsOnFirstCall(t *testing.T) {
	m := threeArchs()
	g := nodGraph(2, 200)
	env := NewEnv(m, g)
	if NODStarted(env) {
		t.Fatal("NewEnv started a NOD fill")
	}
	env.NOD(g.Tasks[0], 0)
	env.nodTable().fill.Wait()
	if got, want := len(env.nodTable().rows), len(g.Tasks)*(len(m.Archs)+1); got != want {
		t.Fatalf("table of %d entries, want %d", got, want)
	}
	if n := env.nodTable().ready.Load(); n != int64(len(g.Tasks)) {
		t.Fatalf("fill finished with %d rows published of %d", n, len(g.Tasks))
	}
}
