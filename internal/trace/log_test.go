package trace

import "testing"

// Lengths around every block boundary up to three blocks past the
// ceiling, and one past the inline block table: append order survives the
// fold, without slack, and only blocks and folded slice are allocated.
func TestLog(t *testing.T) {
	var l Log[int32] // outside the measurement: in the simulator the log is a field
	lengths := []int{0, 1, (len(l.table) + 9) * logCeil}
	for edge, size := 0, logFloor; edge <= 5*logCeil; size = min(2*size, logCeil) {
		edge += size
		lengths = append(lengths, edge-1, edge, edge+1)
	}
	for _, n := range lengths {
		var s []int32
		allocs := testing.AllocsPerRun(3, func() {
			l = Log[int32]{}
			for i := 0; i < n; i++ {
				l.Append(int32(i))
			}
			s = l.Fold()
		})
		want := 0 // blocks
		for left, size := n, logFloor; left > 0; left, size = left-size, min(2*size, logCeil) {
			want++
		}
		if want > 1 {
			want++ // the folded slice
		}
		if want > len(l.table)+2 {
			want++ // the block table, once it outgrows the log
		}
		if l.n != n || len(s) != n || cap(s) != n || (n == 0) != (s == nil) || int(allocs) != want {
			t.Fatalf("%d appended: n %d, Fold len %d cap %d, %v allocations (want %d)", n, l.n, len(s), cap(s), allocs, want)
		}
		for i, v := range s {
			if v != int32(i) {
				t.Fatalf("%d appended: Fold()[%d] = %d", n, i, v)
			}
		}
	}
}
