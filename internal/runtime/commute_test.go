package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiprio/internal/platform"
)

func commuteTask(kind string, acc ...Access) TaskSpec {
	return TaskSpec{Kind: kind, Cost: []float64{0.001}, Accesses: acc}
}

func TestCommuteTasksDoNotDependOnEachOther(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	w := g.Submit(commuteTask("w", Access{h, W}))
	c1 := g.Submit(commuteTask("c1", Access{h, Commute}))
	c2 := g.Submit(commuteTask("c2", Access{h, Commute}))
	c3 := g.Submit(commuteTask("c3", Access{h, Commute}))

	for _, c := range []*Task{c1, c2, c3} {
		if c.NumPreds() != 1 || g.Preds(c)[0] != int32(w.ID) {
			t.Errorf("%s preds = %v, want only the writer", c.Kind(), g.Preds(c))
		}
	}
}

func TestReadClosesCommuteGroup(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	c1 := g.Submit(commuteTask("c1", Access{h, Commute}))
	c2 := g.Submit(commuteTask("c2", Access{h, Commute}))
	r := g.Submit(commuteTask("r", Access{h, R}))
	c3 := g.Submit(commuteTask("c3", Access{h, Commute}))

	preds := map[*Task]bool{}
	for _, p := range g.Preds(r) {
		preds[g.Tasks[p]] = true
	}
	if !preds[c1] || !preds[c2] || len(preds) != 2 {
		t.Errorf("reader preds = %v, want both commuters", g.Preds(r))
	}
	// The post-read commuter starts a new group ordered after the read.
	if c3.NumPreds() != 1 || g.Preds(c3)[0] != int32(r.ID) {
		t.Errorf("c3 preds = %v, want the reader", g.Preds(c3))
	}
}

func TestWriteClosesCommuteGroup(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	c1 := g.Submit(commuteTask("c1", Access{h, Commute}))
	c2 := g.Submit(commuteTask("c2", Access{h, Commute}))
	w := g.Submit(commuteTask("w", Access{h, RW}))

	preds := map[*Task]bool{}
	for _, p := range g.Preds(w) {
		preds[g.Tasks[p]] = true
	}
	if !preds[c1] || !preds[c2] {
		t.Errorf("writer preds = %v, want both commuters", g.Preds(w))
	}
}

func TestCommuteAfterReaders(t *testing.T) {
	g := NewGraph()
	h := g.NewData("x", 8)
	w := g.Submit(commuteTask("w", Access{h, W}))
	r := g.Submit(commuteTask("r", Access{h, R}))
	c := g.Submit(commuteTask("c", Access{h, Commute}))
	_ = w
	preds := map[*Task]bool{}
	for _, p := range g.Preds(c) {
		preds[g.Tasks[p]] = true
	}
	if !preds[r] {
		t.Errorf("commuter must wait for earlier readers; preds = %v", g.Preds(c))
	}
}

func TestCommuteModeProperties(t *testing.T) {
	if !Commute.IsWrite() || !Commute.IsRead() {
		t.Error("Commute must read and write")
	}
	if Commute.String() != "RW|COMMUTE" {
		t.Errorf("String = %q", Commute.String())
	}
}

func TestCommuteHandlesSortedAndDeduped(t *testing.T) {
	g := NewGraph()
	h1 := g.NewData("a", 8)
	h2 := g.NewData("b", 8)
	task := g.Submit(commuteTask("t",
		Access{h2, Commute}, Access{h1, Commute},
		Access{h2, Commute}, Access{h1, R}))
	hs := task.CommuteHandles(nil)
	if len(hs) != 2 || hs[0] != int32(h1.ID) || hs[1] != int32(h2.ID) {
		t.Errorf("CommuteHandles = %v", hs)
	}
	plain := g.Submit(commuteTask("p", Access{h1, RW}))
	if len(plain.CommuteHandles(nil)) != 0 {
		t.Error("non-commute access leaked into CommuteHandles")
	}
}

// TestCommuteMutualExclusionThreaded runs many commuting increments on
// the real engine: without the exec-time locks the unsynchronized
// counter would lose updates (and the race detector would fire).
func TestCommuteMutualExclusionThreaded(t *testing.T) {
	g := NewGraph()
	h := g.NewData("acc", 8)
	counter := 0
	var concurrent, maxConcurrent atomic.Int32
	const n = 40
	for i := 0; i < n; i++ {
		g.Submit(TaskSpec{
			Kind: "add", Cost: []float64{0.0001},
			Accesses: []Access{{Handle: h, Mode: Commute}},
			Run: func(w WorkerInfo) {
				c := concurrent.Add(1)
				for {
					m := maxConcurrent.Load()
					if c <= m || maxConcurrent.CompareAndSwap(m, c) {
						break
					}
				}
				counter++ // protected by the commute lock
				time.Sleep(200 * time.Microsecond)
				concurrent.Add(-1)
			},
		})
	}
	eng := newTestEngine(t, platform.CPUOnly(8), &fifoSched{})
	if _, err := eng.Run(g); err != nil {
		t.Fatal(err)
	}
	if counter != n {
		t.Errorf("counter = %d, want %d (lost updates)", counter, n)
	}
	if maxConcurrent.Load() != 1 {
		t.Errorf("max concurrency on one handle = %d, want 1", maxConcurrent.Load())
	}
}

// TestCommuteDistinctHandlesRunConcurrently checks the locks are
// per-handle, not global.
func TestCommuteDistinctHandlesRunConcurrently(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	wg.Add(2)
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		h := g.NewData("x", 8)
		g.Submit(TaskSpec{
			Kind: "c", Cost: []float64{0.001},
			Accesses: []Access{{Handle: h, Mode: Commute}},
			Run: func(w WorkerInfo) {
				wg.Done() // both running at once proves independence
				<-release
			},
		})
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		<-done
		close(release)
	}()
	eng := newTestEngine(t, platform.CPUOnly(4), &fifoSched{})
	if _, err := eng.Run(g); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("tasks on distinct handles did not overlap")
	}
}
