package core

import (
	"testing"

	"multiprio/internal/runtime"
)

// TestLSSDH2TieBreakTable drives the locality-aware POP through the
// LS_SDH² scoring cases of Eq. 3: read residency counts linearly,
// write residency quadratically, and exact score ties keep heap-head
// order.
func TestLSSDH2TieBreakTable(t *testing.T) {
	cases := []struct {
		name string
		// sizes and modes of the one access of each of two
		// equal-score tasks; resident marks which handles are on the
		// GPU node.
		sizeA, sizeB int64
		modeA, modeB runtime.AccessMode
		residentA    bool
		residentB    bool
		want         string // kind of the expected pop
	}{
		{
			name:  "resident read beats absent read",
			sizeA: 100, modeA: runtime.R, residentA: false,
			sizeB: 100, modeB: runtime.R, residentB: true,
			want: "B",
		},
		{
			name:  "bigger resident read wins",
			sizeA: 50, modeA: runtime.R, residentA: true,
			sizeB: 200, modeB: runtime.R, residentB: true,
			want: "B",
		},
		{
			name:  "small resident write outscores big resident read (squared)",
			sizeA: 100, modeA: runtime.R, residentA: true, // score 100
			sizeB: 20, modeB: runtime.RW, residentB: true, // score 20² = 400
			want: "B",
		},
		{
			name:  "equal locality keeps submission (heap) order",
			sizeA: 100, modeA: runtime.R, residentA: true,
			sizeB: 100, modeB: runtime.R, residentB: true,
			want: "A",
		},
		{
			name:  "nothing resident keeps head",
			sizeA: 100, modeA: runtime.R, residentA: false,
			sizeB: 300, modeB: runtime.R, residentB: false,
			want: "A",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := twoArchMachine(1, 1)
			g := runtime.NewGraph()
			loc := &mapLocator{g: g, resident: make(map[[2]int64]bool)}

			hA := g.NewData("a", tc.sizeA)
			hB := g.NewData("b", tc.sizeB)
			// hFar is read by both tasks and never resident: it keeps
			// the heap head from being fully local, which would
			// short-circuit POP before the LS_SDH² comparison.
			hFar := g.NewData("far", 1)
			// Identical costs: equal gain, equal NOD — POP decides on
			// locality alone within the ε window.
			tA := g.Submit(runtime.TaskSpec{Kind: "A", Cost: []float64{4, 1},
				Accesses: []runtime.Access{
					{Handle: hA, Mode: tc.modeA}, {Handle: hFar, Mode: runtime.R}}})
			tB := g.Submit(runtime.TaskSpec{Kind: "B", Cost: []float64{4, 1},
				Accesses: []runtime.Access{
					{Handle: hB, Mode: tc.modeB}, {Handle: hFar, Mode: runtime.R}}})
			loc.resident[[2]int64{hA.ID, 1}] = tc.residentA
			loc.resident[[2]int64{hB.ID, 1}] = tc.residentB

			s, env := newSched(m, g, Defaults())
			env.Locator = loc
			s.Push(tA)
			s.Push(tB)
			got := s.Pop(runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1})
			if got == nil || got.Kind() != tc.want {
				name := "<nil>"
				if got != nil {
					name = got.Kind()
				}
				t.Errorf("Pop = %s, want %s", name, tc.want)
			}
		})
	}
}

// TestPopConditionRejectionTable walks the pop-condition decision
// boundary (Section V-D): a slower worker may steal only when the best
// architecture's queued work horizon strictly exceeds the steal's cost
// on the slower worker.
func TestPopConditionRejectionTable(t *testing.T) {
	cases := []struct {
		name string
		// queued is extra GPU-best work pushed first (forms the
		// best_remaining_work horizon); cost is the CPU delta of the
		// steal candidate.
		queued   []float64
		cpuDelta float64
		wantPop  bool
	}{
		{name: "idle best arch: steal rejected", queued: nil, cpuDelta: 10, wantPop: false},
		{name: "horizon below cost: rejected", queued: []float64{4}, cpuDelta: 10, wantPop: false},
		{name: "horizon equals cost: rejected (strict)", queued: []float64{9}, cpuDelta: 10, wantPop: false},
		{name: "horizon above cost: steal allowed", queued: []float64{15, 15}, cpuDelta: 10, wantPop: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := twoArchMachine(1, 1)
			g := runtime.NewGraph()

			// The steal candidate: GPU-best (delta 1), CPU delta as
			// configured. Submitted first so it is also the earliest
			// entry.
			cand := g.Submit(runtime.TaskSpec{Kind: "cand", Cost: []float64{tc.cpuDelta, 1}})
			// Queued GPU-best work raising bestRemaining on the GPU
			// node. GPU-only (no CPU implementation) so the CPU worker
			// cannot pop it instead.
			var queued []*runtime.Task
			for _, d := range tc.queued {
				queued = append(queued, g.Submit(runtime.TaskSpec{Kind: "load", Cost: []float64{0, d}}))
			}
			s, _ := newSched(m, g, Defaults())
			s.Push(cand)
			for _, q := range queued {
				s.Push(q)
			}

			// The horizon the CPU steal is judged against includes the
			// candidate's own contribution (it is GPU-best too).
			cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
			got := s.Pop(cpu)
			if tc.wantPop && got != cand {
				t.Errorf("Pop = %v, want the steal candidate", got)
			}
			if !tc.wantPop && got != nil {
				t.Errorf("Pop = %s, want nil (pop condition must reject)", got.Kind())
			}
		})
	}
}

// TestEvictAndRetryMaxTries pins the retry budget of Algorithm 2 at
// MaxTries ∈ {1, 4, 16}: each failed pop condition evicts the candidate
// from the popping node's heap (duplicates elsewhere survive), the loop
// gives up after MaxTries retries or an empty heap, and the eviction
// counter records exactly the evicted candidates.
func TestEvictAndRetryMaxTries(t *testing.T) {
	const nTasks = 6
	for _, maxTries := range []int{1, 4, 16} {
		cfg := Defaults()
		cfg.MaxTries = maxTries
		wantEvict := maxTries + 1 // tries 0..MaxTries inclusive
		if wantEvict > nTasks {
			wantEvict = nTasks // heap runs dry first
		}
		m := twoArchMachine(1, 1)
		g := runtime.NewGraph()
		for i := 0; i < nTasks; i++ {
			// GPU-best with tiny bestDelta: total horizon (6) stays
			// below the CPU steal cost (10), so every candidate fails
			// the pop condition on the CPU worker. Runs on both archs,
			// so a duplicate lives in the GPU heap and eviction from
			// the CPU heap is permitted.
			g.Submit(runtime.TaskSpec{Kind: "t", Cost: []float64{10, 1}})
		}
		s, _ := newSched(m, g, cfg)
		for _, task := range g.Tasks {
			s.Push(task)
		}
		cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
		if got := s.Pop(cpu); got != nil {
			t.Errorf("MaxTries=%d: Pop = %s, want nil", maxTries, got.Kind())
		}
		if s.Evictions != int64(wantEvict) {
			t.Errorf("MaxTries=%d: %d evictions, want %d", maxTries, s.Evictions, wantEvict)
		}
		if got := s.readyOn(0); got != nTasks-wantEvict {
			t.Errorf("MaxTries=%d: CPU node ready count %d, want %d", maxTries, got, nTasks-wantEvict)
		}
		// Duplicates on the GPU node all survive and remain poppable.
		if got := s.readyOn(1); got != nTasks {
			t.Errorf("MaxTries=%d: GPU node ready count %d, want %d (duplicates must survive)", maxTries, got, nTasks)
		}
		gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
		for i := 0; i < nTasks; i++ {
			if s.Pop(gpu) == nil {
				t.Fatalf("MaxTries=%d: GPU pop %d returned nil", maxTries, i)
			}
		}
	}
}

// TestStaleDuplicateDiscard checks duplicate hygiene: once a task is
// popped through one node's heap, its copies on every other node are
// discarded — the other worker never sees the claimed task, ready
// counts drop on all member nodes, and a fresh task is unaffected.
func TestStaleDuplicateDiscard(t *testing.T) {
	m := twoArchMachine(1, 1)
	g := runtime.NewGraph()
	// Eviction off isolates duplicate handling: the GPU pop must not be
	// rejected by the pop condition, only ever by a stale duplicate.
	cfg := Defaults()
	cfg.DisableEviction = true

	// Both tasks run on both architectures: each is duplicated into
	// the CPU and the GPU heap.
	shared := g.Submit(runtime.TaskSpec{Kind: "shared", Cost: []float64{1, 4}})
	other := g.Submit(runtime.TaskSpec{Kind: "other", Cost: []float64{1, 4}})
	s, _ := newSched(m, g, cfg)
	s.Push(shared)
	s.Push(other)
	if got := s.readyOn(0); got != 2 {
		t.Fatalf("CPU ready count = %d, want 2", got)
	}
	if got := s.readyOn(1); got != 2 {
		t.Fatalf("GPU ready count = %d, want 2", got)
	}

	cpu := runtime.WorkerInfo{ID: 0, Arch: 0, Mem: 0}
	gpu := runtime.WorkerInfo{ID: 1, Arch: 1, Mem: 1}
	first := s.Pop(cpu)
	if first == nil {
		t.Fatal("CPU pop returned nil with two ready tasks")
	}
	// The duplicate of the claimed task is gone from the GPU heap.
	if got := s.readyOn(1); got != 1 {
		t.Errorf("GPU ready count after CPU pop = %d, want 1 (stale duplicate must be discarded)", got)
	}
	second := s.Pop(gpu)
	if second == nil {
		t.Fatal("GPU pop returned nil, stale duplicate blocked the live task")
	}
	if second == first {
		t.Fatalf("task %s popped twice through duplicate heaps", first.Kind())
	}
	if s.readyOn(0) != 0 || s.readyOn(1) != 0 {
		t.Errorf("ready counts after draining = (%d, %d), want (0, 0)",
			s.readyOn(0), s.readyOn(1))
	}
	if got := s.Pop(cpu); got != nil {
		t.Errorf("pop on drained scheduler = %s, want nil", got.Kind())
	}
}
