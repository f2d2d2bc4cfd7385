package heap

import (
	"encoding/binary"
	"testing"
)

// driveOps replays an operation script against the heap and a map-based
// model, checking every result and the invariants (Verify) after every
// step. The position index is a dense table that grows with the largest
// id pushed, so the script's ids are what it probes: each 4-byte record
// is an opcode, a 16-bit signed id and a stride selector that spreads
// the id over a sparse range reaching past many table doublings.
// Negative ids and ids never pushed must read as absent; pushing a
// negative or present id must panic and leave the heap untouched.
func driveOps(t *testing.T, script []byte) {
	t.Helper()
	strides := [...]int64{1, 1, 7, 4099}
	// maxID bounds the table a script can demand and maxScript the steps
	// taken: Verify scans the whole table after every step, and the fuzz
	// mutator grows scripts to a megabyte. 2^13 slots is thirteen
	// doublings from New(0).
	const maxID, maxScript = 1 << 13, 4 * 2048
	if len(script) > maxScript {
		script = script[:maxScript]
	}
	h := New(0)
	ref := make(map[int64]Score)
	step := 0
	for ; len(script) >= 4; script = script[4:] {
		step++
		op := script[0] % 8
		id := int64(int16(binary.LittleEndian.Uint16(script[1:3]))) * strides[script[3]%4]
		if id >= maxID {
			id %= maxID
		}
		sc := Score{Primary: float64(script[3] >> 2), Secondary: float64(script[1])}
		_, present := ref[id]
		switch op {
		case 0, 1, 2: // push (weighted: scripts should fill the heap)
			if id < 0 || present {
				if !panics(func() { h.Push(id, sc) }) {
					t.Fatalf("step %d: Push(%d) did not panic (present=%v)", step, id, present)
				}
				break
			}
			h.Push(id, sc)
			ref[id] = sc
		case 3: // pop max
			got, gotSc, ok := h.Pop()
			if ok != (len(ref) > 0) {
				t.Fatalf("step %d: Pop ok=%v with %d elements", step, ok, len(ref))
			}
			if !ok {
				break
			}
			if want, in := ref[got]; !in || want != gotSc {
				t.Fatalf("step %d: Pop returned id %d score %v, model has %v (present=%v)", step, got, gotSc, want, in)
			}
			for other, s := range ref {
				if gotSc.Less(s) {
					t.Fatalf("step %d: Pop returned %d %v but %d holds %v", step, got, gotSc, other, s)
				}
			}
			delete(ref, got)
		case 4: // remove, present or not
			if got := h.Remove(id); got != present {
				t.Fatalf("step %d: Remove(%d) = %v, present = %v", step, id, got, present)
			}
			delete(ref, id)
		case 5: // update, present or not
			if got := h.Update(id, sc); got != present {
				t.Fatalf("step %d: Update(%d) = %v, present = %v", step, id, got, present)
			}
			if present {
				ref[id] = sc
			}
		case 6: // lookups
			if got := h.index(id) >= 0; got != present {
				t.Fatalf("step %d: index(%d) >= 0 is %v, present = %v", step, id, got, present)
			}
			if got, ok := h.scoreOf(id); ok != present || got != ref[id] {
				t.Fatalf("step %d: Score(%d) = %v, %v; model %v, %v", step, id, got, ok, ref[id], present)
			}
		case 7: // clear, rarely: only on one id in 64, or scripts never fill up
			if id%64 != 0 {
				break
			}
			h.clear()
			ref = make(map[int64]Score)
		}
		if err := h.Verify(); err != nil {
			t.Fatalf("step %d (op %d, id %d): %v", step, op, id, err)
		}
		if h.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, model %d", step, h.Len(), len(ref))
		}
	}
	// Drain: everything the model holds comes out, in non-increasing order.
	prev, first := Score{}, true
	for len(ref) > 0 {
		id, sc, ok := h.Pop()
		if !ok || ref[id] != sc || (!first && prev.Less(sc)) {
			t.Fatalf("drain: Pop = %d %v %v after %v, model %v", id, sc, ok, prev, ref[id])
		}
		delete(ref, id)
		prev, first = sc, false
	}
	if h.Len() != 0 {
		t.Fatalf("drain left %d elements", h.Len())
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// rec encodes one driveOps record.
func rec(op byte, id int16, stride byte, prim byte) []byte {
	var b [4]byte
	b[0] = op
	binary.LittleEndian.PutUint16(b[1:3], uint16(id))
	b[3] = stride%4 | prim<<2
	return b[:]
}

// denseSeeds are hand-built scripts for the id shapes the dense table
// has to survive; they run as a plain test, and their heads seed the fuzzer.
func denseSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	var s []byte
	// Sparse: ids 0, 7, 14, ... interleaved with removals of ids between them.
	for i := int16(0); i < 200; i++ {
		s = append(s, rec(0, i, 2, byte(i*13))...)
		s = append(s, rec(4, i, 1, 0)...) // stride 1: mostly never-pushed ids
		s = append(s, rec(6, i+1, 2, 0)...)
	}
	seeds["sparse"] = s
	s = nil
	// Large: descending from the top of the range, so the very first push
	// sizes the table in one step and later ones fall inside it; then
	// ascending past it again after a Clear.
	for i := int16(500); i > 300; i-- {
		s = append(s, rec(0, i, 3, byte(i))...)
		s = append(s, rec(3, 0, 0, 0)...)
		s = append(s, rec(0, i, 3, byte(i+1))...)
	}
	s = append(s, rec(7, 0, 0, 0)...)
	for i := int16(1); i < 400; i += 3 {
		s = append(s, rec(0, i, 3, byte(i))...)
		s = append(s, rec(5, i, 3, byte(255-i))...)
	}
	seeds["large"] = s
	s = nil
	// Repeated: the same few ids pushed (duplicate panics), popped,
	// re-pushed, updated and removed over and over across growth.
	for round := 0; round < 60; round++ {
		for i := int16(0); i < 5; i++ {
			id := i * int16(round+1)
			s = append(s, rec(0, id, 1, byte(round))...)
			s = append(s, rec(0, id, 1, byte(round+1))...)
			s = append(s, rec(5, id, 1, byte(3*round))...)
		}
		s = append(s, rec(3, 0, 0, 0)...)
		s = append(s, rec(4, int16(round), 1, 0)...)
	}
	seeds["repeated"] = s
	s = nil
	// Negative: every operation on negative ids, around valid traffic.
	for i := int16(1); i < 120; i++ {
		s = append(s, rec(0, -i, byte(i), 1)...)
		s = append(s, rec(0, i, byte(i), byte(i))...)
		s = append(s, rec(4, -i, byte(i), 0)...)
		s = append(s, rec(5, -i, byte(i), 9)...)
		s = append(s, rec(6, -i, byte(i), 0)...)
	}
	seeds["negative"] = s
	return seeds
}

func TestDenseIndexShapes(t *testing.T) {
	for name, script := range denseSeeds() {
		t.Run(name, func(t *testing.T) { driveOps(t, script) })
	}
}

func FuzzHeapOps(f *testing.F) {
	for _, script := range denseSeeds() {
		// Heads only: the engine minimizes every input that finds new
		// coverage, quadratically in its length — minutes on a
		// multi-kilobyte script.
		f.Add(script[:32])
	}
	f.Fuzz(func(t *testing.T, script []byte) { driveOps(t, script) })
}

// TestNeverPushedIDs pins the absent-id answers on a fresh heap and on
// one whose table is shorter than the id asked about.
func TestNeverPushedIDs(t *testing.T) {
	for _, h := range []*Heap{New(0), New(8)} {
		h.Push(3, Score{Primary: 1})
		for _, id := range []int64{-1, -1 << 40, 0, 2, 4, 8, 1 << 40} {
			if h.index(id) >= 0 || h.Remove(id) || h.Update(id, Score{Primary: 9}) {
				t.Errorf("id %d reported present", id)
			}
			if _, ok := h.scoreOf(id); ok {
				t.Errorf("Score(%d) ok on a never-pushed id", id)
			}
		}
		if h.Len() != 1 || h.index(3) < 0 {
			t.Error("lookups of absent ids disturbed the heap")
		}
		if err := h.Verify(); err != nil {
			t.Error(err)
		}
	}
}
