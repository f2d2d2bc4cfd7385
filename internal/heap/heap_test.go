package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHeap(t *testing.T) {
	h := New(0)
	if h.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", h.Len())
	}
	if _, _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap returned ok")
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap returned ok")
	}
	if h.Remove(42) {
		t.Error("Remove on empty heap returned true")
	}
	if h.Update(42, Score{}) {
		t.Error("Update on empty heap returned true")
	}
	if got := h.TopN(nil, 5); len(got) != 0 {
		t.Errorf("TopN on empty heap = %v, want empty", got)
	}
}

func TestPushPopOrdering(t *testing.T) {
	h := New(8)
	h.Push(1, Score{Primary: 0.2})
	h.Push(2, Score{Primary: 0.9})
	h.Push(3, Score{Primary: 0.5})
	h.Push(4, Score{Primary: 0.7})

	want := []int64{2, 4, 3, 1}
	for i, w := range want {
		id, _, ok := h.Pop()
		if !ok {
			t.Fatalf("pop %d: heap empty", i)
		}
		if id != w {
			t.Errorf("pop %d = id %d, want %d", i, id, w)
		}
	}
}

func TestSecondaryTieBreak(t *testing.T) {
	h := New(4)
	h.Push(1, Score{Primary: 0.5, Secondary: 0.1})
	h.Push(2, Score{Primary: 0.5, Secondary: 0.9})
	h.Push(3, Score{Primary: 0.5, Secondary: 0.4})

	want := []int64{2, 3, 1}
	for i, w := range want {
		id, _, _ := h.Pop()
		if id != w {
			t.Errorf("pop %d = id %d, want %d (secondary tie-break)", i, id, w)
		}
	}
}

func TestDuplicatePushPanics(t *testing.T) {
	h := New(2)
	h.Push(7, Score{Primary: 1})
	defer func() {
		if recover() == nil {
			t.Error("duplicate push did not panic")
		}
	}()
	h.Push(7, Score{Primary: 2})
}

func TestRemoveArbitrary(t *testing.T) {
	h := New(8)
	for i := int64(0); i < 8; i++ {
		h.Push(i, Score{Primary: float64(i)})
	}
	if !h.Remove(3) {
		t.Fatal("Remove(3) = false")
	}
	if h.Remove(3) {
		t.Fatal("second Remove(3) = true")
	}
	if h.index(3) >= 0 {
		t.Fatal("3 still indexed after removal")
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		id, _, ok := h.Pop()
		if !ok {
			break
		}
		got = append(got, id)
	}
	want := []int64{7, 6, 5, 4, 2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("pop sequence %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop sequence %v, want %v", got, want)
		}
	}
}

func TestUpdateRaisesAndLowers(t *testing.T) {
	h := New(4)
	h.Push(1, Score{Primary: 0.1})
	h.Push(2, Score{Primary: 0.2})
	h.Push(3, Score{Primary: 0.3})

	if !h.Update(1, Score{Primary: 0.99}) {
		t.Fatal("Update(1) = false")
	}
	if id, _, _ := h.Peek(); id != 1 {
		t.Errorf("after raising 1, Peek = %d, want 1", id)
	}
	if !h.Update(1, Score{Primary: 0.0}) {
		t.Fatal("second Update(1) = false")
	}
	if id, _, _ := h.Peek(); id != 3 {
		t.Errorf("after lowering 1, Peek = %d, want 3", id)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestScoreLookup(t *testing.T) {
	h := New(2)
	h.Push(5, Score{Primary: 0.5, Secondary: 0.25})
	s, ok := h.scoreOf(5)
	if !ok || s.Primary != 0.5 || s.Secondary != 0.25 {
		t.Errorf("Score(5) = %+v, %v", s, ok)
	}
	if _, ok := h.scoreOf(6); ok {
		t.Error("Score(6) = ok for absent id")
	}
}

func TestTopNOrderAndNonMutation(t *testing.T) {
	h := New(16)
	rng := rand.New(rand.NewSource(1))
	scores := make(map[int64]float64)
	for i := int64(0); i < 16; i++ {
		s := rng.Float64()
		scores[i] = s
		h.Push(i, Score{Primary: s})
	}
	top := h.TopN(nil, 5)
	if len(top) != 5 {
		t.Fatalf("TopN returned %d ids, want 5", len(top))
	}
	// Must be the 5 best, in descending order.
	for i := 1; i < len(top); i++ {
		if scores[top[i-1]] < scores[top[i]] {
			t.Errorf("TopN not descending at %d: %v", i, top)
		}
	}
	all := make([]int64, 0, 16)
	for id := range scores {
		all = append(all, id)
	}
	sort.Slice(all, func(a, b int) bool { return scores[all[a]] > scores[all[b]] })
	for i := 0; i < 5; i++ {
		if top[i] != all[i] {
			t.Errorf("TopN[%d] = %d, want %d", i, top[i], all[i])
		}
	}
	if h.Len() != 16 {
		t.Errorf("TopN mutated heap: Len = %d", h.Len())
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTopNLargerThanHeap(t *testing.T) {
	h := New(3)
	h.Push(1, Score{Primary: 1})
	h.Push(2, Score{Primary: 2})
	got := h.TopN(nil, 10)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("TopN(10) = %v, want [2 1]", got)
	}
}

func TestClear(t *testing.T) {
	h := New(4)
	h.Push(1, Score{Primary: 1})
	h.Push(2, Score{Primary: 2})
	h.clear()
	if h.Len() != 0 || h.index(1) >= 0 || h.index(2) >= 0 {
		t.Error("Clear did not empty the heap")
	}
	h.Push(1, Score{Primary: 3}) // reusable after Clear
	if id, _, _ := h.Peek(); id != 1 {
		t.Error("heap unusable after Clear")
	}
}

// TestQuickRandomOperations drives the heap with random operation
// sequences and checks the invariants plus pop-order correctness against
// a reference implementation.
func TestQuickRandomOperations(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(0)
		ref := make(map[int64]Score)
		next := int64(0)
		for _, op := range opsRaw {
			switch op % 4 {
			case 0: // push
				s := Score{Primary: rng.Float64(), Secondary: rng.Float64()}
				h.Push(next, s)
				ref[next] = s
				next++
			case 1: // pop max
				id, sc, ok := h.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if !ok {
					continue
				}
				for _, s := range ref {
					if sc.Less(s) {
						return false // popped element was not max
					}
				}
				if ref[id] != sc {
					return false
				}
				delete(ref, id)
			case 2: // remove random existing
				if len(ref) == 0 {
					continue
				}
				var id int64
				for k := range ref {
					id = k
					break
				}
				if !h.Remove(id) {
					return false
				}
				delete(ref, id)
			case 3: // update random existing
				if len(ref) == 0 {
					continue
				}
				var id int64
				for k := range ref {
					id = k
					break
				}
				s := Score{Primary: rng.Float64(), Secondary: rng.Float64()}
				if !h.Update(id, s) {
					return false
				}
				ref[id] = s
			}
			if err := h.Verify(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			if h.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTopNMatchesSort cross-checks TopN against full sorting.
func TestQuickTopNMatchesSort(t *testing.T) {
	f := func(seed int64, size uint8, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sz := int(size%64) + 1
		n := int(nRaw%16) + 1
		h := New(sz)
		type kv struct {
			id int64
			s  Score
		}
		var all []kv
		for i := 0; i < sz; i++ {
			s := Score{Primary: rng.Float64(), Secondary: rng.Float64()}
			h.Push(int64(i), s)
			all = append(all, kv{int64(i), s})
		}
		sort.Slice(all, func(a, b int) bool { return all[b].s.Less(all[a].s) })
		top := h.TopN(nil, n)
		want := n
		if want > sz {
			want = sz
		}
		if len(top) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if top[i] != all[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	h := New(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := int64(i)
		h.Push(id, Score{Primary: rng.Float64()})
		if h.Len() > 1024 {
			h.Pop()
		}
	}
}

func BenchmarkTopN10(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	h := New(4096)
	for i := 0; i < 4096; i++ {
		h.Push(int64(i), Score{Primary: rng.Float64()})
	}
	var buf []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = h.TopN(buf[:0], 10)
	}
}

// TestHeapAllocations pins what the heap allocates: the item slice and
// the position table when New sizes them, nothing per operation after;
// a top-n scan allocates its result buffer and frontier on the first
// calls and nothing once both are warm.
func TestHeapAllocations(t *testing.T) {
	const n = 8192
	rng := rand.New(rand.NewSource(7))
	score := func(id int64) Score { return Score{Primary: float64(rng.Intn(1000)), Secondary: float64(id)} }
	ops := testing.AllocsPerRun(3, func() {
		h := New(n)
		for id := int64(0); id < n; id++ {
			h.Push(id, score(id))
		}
		for id := int64(0); id < n; id += 2 {
			h.Update(id, score(id))
		}
		for id := int64(0); id < n; id += 4 {
			h.Remove(id)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if ops > 2 {
		t.Errorf("%d pushes, updates, removals and a drain allocate %v times, want <= 2 (New's two tables)", n, ops)
	}

	fill := func() *Heap {
		h := New(2048)
		for id := int64(0); id < 2048; id++ {
			h.Push(id, score(id))
		}
		return h
	}
	scans := func(h *Heap, buf []ScoredID) {
		for k := 0; k < 512; k++ {
			buf = h.TopNScored(buf[:0], 10)
		}
	}
	// Cold is a fresh heap and a nil buffer on every run, less what
	// filling the heap allocates.
	cold := testing.AllocsPerRun(3, func() { scans(fill(), nil) }) - testing.AllocsPerRun(3, func() { fill() })
	if cold > 10 {
		t.Errorf("512 top-10 scans from a cold heap allocate %v times, want <= 10", cold)
	}
	h, buf := fill(), make([]ScoredID, 0, 10)
	scans(h, buf)
	if warm := testing.AllocsPerRun(3, func() { scans(h, buf) }); warm != 0 {
		t.Errorf("512 top-10 scans with buffer and frontier warm allocate %v times, want 0", warm)
	}
}
