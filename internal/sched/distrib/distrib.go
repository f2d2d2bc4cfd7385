// Package distrib is the top level of the two-level cluster scheduler:
// a distributor that shards the DAG across the nodes of a cluster
// machine (platform.NewCluster) and forwards every scheduling decision
// to one per-node policy instance built from the central registry.
//
// Each per-node instance is an unmodified single-node policy (multiprio,
// dmdas, ...) running against a node-local Env whose Machine is the
// node's own description: worker and memory IDs are translated at the
// distributor boundary, the data locator and prefetch hooks are
// forwarded to the engine in global coordinates, and the run's state
// (claims, execution records, which RanOn reports in node-local units),
// clock, sequencer and probe are shared. A policy cannot tell it is one
// level of a hierarchy — which is what makes the scheduler registry the
// policy catalog for clusters too (the STOMP framing: swap policies
// per node, keep the harness).
//
// On a single-node machine the distributor degenerates to a transparent
// passthrough: the one sub-policy receives the engine's Env verbatim
// and every call is forwarded unchanged, so traces are byte-identical
// to running the policy bare (the N=1 equivalence property pinned by
// TestClusterN1Golden).
package distrib

import (
	"fmt"
	"sync"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/registry"
)

// affinityWeight is how many queued tasks one resident predecessor
// outweighs when the distributor places a task: node score =
// outstanding - affinityWeight × predecessors-on-node, lowest wins.
const affinityWeight = 2

// Stats reports the distributor's sharding outcome for one run.
type Stats struct {
	// TasksPerNode counts the tasks assigned to each node.
	TasksPerNode []int64
	// CrossAssignments counts tasks placed on a node holding none of
	// their predecessors (pure load-balancing moves).
	CrossAssignments int64
}

// Scheduler is the top-level distributor. Build with New; it implements
// runtime.Scheduler and runtime.FaultObserver.
type Scheduler struct {
	inner string
	opts  registry.Options

	env     *runtime.Env
	single  bool
	subs    []runtime.Scheduler
	subEnvs []*runtime.Env
	// canHost[n][arch] reports whether node n has ≥1 unit of arch.
	canHost [][]bool

	mu      sync.Mutex
	owner   map[int64]platform.NodeID
	pending []int64 // tasks pushed to a node and not yet done
	stats   Stats
}

// New builds a distributor whose per-node policies are fresh instances
// of the named registry policy. The name is resolved eagerly so a typo
// fails at construction, not mid-run.
func New(inner string, opts registry.Options) (*Scheduler, error) {
	if _, err := registry.New(inner, opts); err != nil {
		return nil, err
	}
	return &Scheduler{inner: inner, opts: opts}, nil
}

// Name implements runtime.Scheduler.
func (s *Scheduler) Name() string { return "distrib:" + s.inner }

// Stats returns the sharding counters of the current run. Call after
// the run completes.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.TasksPerNode = append([]int64(nil), s.stats.TasksPerNode...)
	return out
}

func (s *Scheduler) newSub() runtime.Scheduler {
	sub, err := registry.New(s.inner, s.opts)
	if err != nil {
		// New validated the name and the registry is append-only.
		panic(fmt.Sprintf("distrib: %v", err))
	}
	return sub
}

// Init implements runtime.Scheduler: it builds one per-node policy
// instance per cluster node, each bound to a node-local Env.
func (s *Scheduler) Init(env *runtime.Env) {
	s.env = env
	n := env.Machine.NumNodes()
	s.owner = make(map[int64]platform.NodeID, len(env.Graph.Tasks))
	s.pending = make([]int64, n)
	s.stats = Stats{TasksPerNode: make([]int64, n)}
	s.subs = make([]runtime.Scheduler, n)
	s.subEnvs = make([]*runtime.Env, n)
	s.single = n == 1
	if s.single {
		// Transparent passthrough: the sub-policy sees the engine's Env
		// itself, so behaviour is byte-identical to running it bare.
		s.subs[0] = s.newSub()
		s.subEnvs[0] = env
		s.subs[0].Init(env)
		return
	}
	info := env.Machine.Cluster
	s.canHost = make([][]bool, n)
	for k := 0; k < n; k++ {
		node := info.Nodes[k]
		s.canHost[k] = make([]bool, len(node.Archs))
		for a := range node.Archs {
			s.canHost[k][a] = node.NumWorkersOf(platform.ArchID(a)) > 0
		}
		se := env.NodeEnv(node, info.UnitBase[k])
		se.Locator = nodeLocator{loc: env.Locator, base: info.MemBase[k]}
		if env.Prefetch != nil {
			base := info.MemBase[k]
			se.Prefetch = func(t *runtime.Task, mem platform.MemID) {
				env.Prefetch(t, base+mem)
			}
		}
		s.subEnvs[k] = se
		s.subs[k] = s.newSub()
		s.subs[k].Init(se)
	}
}

// Push implements runtime.Scheduler: the distributor level. The task's
// owning node is chosen once (re-pushes of fault retries and
// speculation replicas stay on their node, keeping per-node policy
// state coherent) and the task is forwarded to that node's policy.
func (s *Scheduler) Push(t *runtime.Task) {
	if s.single {
		s.subs[0].Push(t)
		return
	}
	s.mu.Lock()
	node, ok := s.owner[t.ID]
	if !ok {
		node = s.place(t)
		s.owner[t.ID] = node
		s.pending[node]++
		s.stats.TasksPerNode[node]++
	}
	s.mu.Unlock()
	s.subs[node].Push(t)
}

// place picks the owning node of a freshly released task: among the
// nodes able to execute it (≥1 worker of a runnable architecture), the
// one minimizing outstanding-work minus an affinity bonus per
// predecessor already owned there. Ties break to the lowest node ID, so
// placement is a pure function of (predecessor owners, pending counts)
// and sim-engine runs stay deterministic. Caller holds mu.
func (s *Scheduler) place(t *runtime.Task) platform.NodeID {
	n := len(s.subs)
	var predsOn []int64
	for _, p := range s.env.Graph.Preds(t) {
		if node, ok := s.owner[int64(p)]; ok {
			if predsOn == nil {
				predsOn = make([]int64, n)
			}
			predsOn[node]++
		}
	}
	best, bestScore := platform.NodeID(-1), int64(0)
	for k := 0; k < n; k++ {
		if !s.canRunOn(t, k) {
			continue
		}
		score := s.pending[k]
		if predsOn != nil {
			score -= affinityWeight * predsOn[k]
		}
		if best < 0 || score < bestScore {
			best, bestScore = platform.NodeID(k), score
		}
	}
	if best < 0 {
		// No node can run the task; hand it to node 0 so the policy
		// surfaces the same no-implementation failure a single node would.
		best = 0
	}
	if predsOn == nil || predsOn[best] == 0 {
		s.stats.CrossAssignments++
	}
	return best
}

// canRunOn reports whether node k has a worker of an architecture the
// task implements.
func (s *Scheduler) canRunOn(t *runtime.Task, k int) bool {
	for a, ok := range s.canHost[k] {
		if ok && t.CanRun(platform.ArchID(a)) {
			return true
		}
	}
	return false
}

// Pop implements runtime.Scheduler: the worker's node answers, seeing
// the worker under its node-local identity.
func (s *Scheduler) Pop(w runtime.WorkerInfo) *runtime.Task {
	if s.single {
		return s.subs[0].Pop(w)
	}
	node, lw := s.localWorker(w)
	return s.subs[node].Pop(lw)
}

// TaskDone implements runtime.Scheduler.
func (s *Scheduler) TaskDone(t *runtime.Task, w runtime.WorkerInfo) {
	if s.single {
		s.subs[0].TaskDone(t, w)
		return
	}
	node, lw := s.localWorker(w)
	s.mu.Lock()
	if owner, ok := s.owner[t.ID]; ok {
		s.pending[owner]--
	}
	s.mu.Unlock()
	s.subs[node].TaskDone(t, lw)
}

// WorkerDown implements runtime.FaultObserver: the kill is mirrored
// into the node-local Env's live-worker view (engines only mark the
// global Env) and forwarded to the node's policy if it observes faults.
func (s *Scheduler) WorkerDown(w runtime.WorkerInfo) {
	if s.single {
		if fo, ok := s.subs[0].(runtime.FaultObserver); ok {
			fo.WorkerDown(w)
		}
		return
	}
	node, lw := s.localWorker(w)
	s.subEnvs[node].MarkWorkerDown(lw.ID)
	if fo, ok := s.subs[node].(runtime.FaultObserver); ok {
		fo.WorkerDown(lw)
	}
}

// localWorker translates an engine (global) worker identity into the
// owning node and its node-local identity.
func (s *Scheduler) localWorker(w runtime.WorkerInfo) (platform.NodeID, runtime.WorkerInfo) {
	m := s.env.Machine
	node, lu := m.LocalUnit(w.ID)
	_, lm := m.LocalMem(w.Mem)
	return node, runtime.WorkerInfo{ID: lu, Arch: w.Arch, Mem: lm}
}

// nodeLocator exposes the engine's global data-placement view to one
// node's policy in node-local memory coordinates.
type nodeLocator struct {
	loc  runtime.DataLocator
	base platform.MemID
}

func (l nodeLocator) Resident(h int32, mem platform.MemID) (int64, bool) {
	return l.loc.Resident(h, l.base+mem)
}

func (l nodeLocator) TransferEstimate(h int32, mem platform.MemID) float64 {
	return l.loc.TransferEstimate(h, l.base+mem)
}
