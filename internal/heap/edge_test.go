package heap

import "testing"

// TestRemoveWhileIterating walks a TopN snapshot and removes each
// visited element: the lazy-removal pattern of the locality-aware POP
// (duplicates already executed through another node's heap are removed
// mid-scan). The heap property must survive every removal.
func TestRemoveWhileIterating(t *testing.T) {
	h := New(0)
	for i := int64(0); i < 20; i++ {
		h.Push(i, Score{Primary: float64(i % 7), Secondary: float64(i)})
	}
	for h.Len() > 0 {
		top := h.TopN(nil, 5)
		if len(top) == 0 {
			t.Fatal("TopN returned nothing on a non-empty heap")
		}
		for _, id := range top {
			if !h.Remove(id) {
				t.Fatalf("id %d from TopN not present at removal", id)
			}
			if h.index(id) >= 0 {
				t.Fatalf("id %d still present after Remove", id)
			}
			if err := h.Verify(); err != nil {
				t.Fatalf("heap property broken after removing %d: %v", id, err)
			}
		}
	}
}

// TestUpdateToEqualKeys collapses every score onto one value: updates
// must keep the heap consistent when old and new keys compare equal in
// both directions, and all elements must still drain out exactly once.
func TestUpdateToEqualKeys(t *testing.T) {
	cases := []struct {
		name string
		n    int64
		to   Score
	}{
		{"all-zero", 12, Score{}},
		{"all-equal-nonzero", 9, Score{Primary: 3.5, Secondary: -1}},
		{"single", 1, Score{Primary: 1}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			h := New(int(c.n))
			for i := int64(0); i < c.n; i++ {
				h.Push(i, Score{Primary: float64(i), Secondary: float64(-i)})
			}
			for i := int64(0); i < c.n; i++ {
				if !h.Update(i, c.to) {
					t.Fatalf("Update(%d) reported absent", i)
				}
				if err := h.Verify(); err != nil {
					t.Fatalf("after Update(%d): %v", i, err)
				}
				if got, _ := h.scoreOf(i); got != c.to {
					t.Fatalf("Score(%d) = %v, want %v", i, got, c.to)
				}
			}
			drained := make(map[int64]bool, c.n)
			for {
				id, s, ok := h.Pop()
				if !ok {
					break
				}
				if s != c.to {
					t.Fatalf("popped score %v, want %v", s, c.to)
				}
				if drained[id] {
					t.Fatalf("id %d popped twice", id)
				}
				drained[id] = true
			}
			if int64(len(drained)) != c.n {
				t.Fatalf("drained %d of %d elements", len(drained), c.n)
			}
		})
	}
}

// TestTopNBeyondLen asks for more candidates than stored: TopN must
// return exactly Len ids, in non-ascending score order, without
// touching the heap.
func TestTopNBeyondLen(t *testing.T) {
	for _, size := range []int{0, 1, 3, 8} {
		h := New(0)
		for i := 0; i < size; i++ {
			h.Push(int64(i), Score{Primary: float64(i * 3 % 5), Secondary: float64(i)})
		}
		got := h.TopN(nil, size+10)
		if len(got) != size {
			t.Fatalf("size %d: TopN(n=%d) returned %d ids", size, size+10, len(got))
		}
		for i := 1; i < len(got); i++ {
			a, _ := h.scoreOf(got[i-1])
			b, _ := h.scoreOf(got[i])
			if a.Less(b) {
				t.Fatalf("size %d: TopN out of order at %d: %v before %v", size, i, a, b)
			}
		}
		if h.Len() != size {
			t.Fatalf("TopN mutated the heap: len %d, want %d", h.Len(), size)
		}
		if err := h.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}
