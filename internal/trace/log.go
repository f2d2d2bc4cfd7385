package trace

const (
	// logFloor is the first block's capacity in records: the runs whose
	// data all fits issue a few hundred transfers and stay in one block.
	logFloor = 1 << 10
	// logCeil is where block capacities stop doubling: of the measured
	// sizes, none faster beyond noise, the one that allocates least often
	// — less often than growing one slice did (DESIGN §8.3).
	logCeil = 1 << 16
)

// Log is an append-only record log that never moves a record: Append
// writes into blocks whose capacity doubles from logFloor to logCeil and
// then stays there, and Fold copies them once into one exact-size slice.
// The zero value is an empty log; a Log must not be copied after first
// use (full points into table until 1.7 million records outgrow it).
type Log[T any] struct {
	full  [][]T // filled blocks, oldest first
	tail  []T   // the block being filled
	n     int
	table [32][]T
}

// Append adds v at the end of the log.
func (l *Log[T]) Append(v T) {
	if c := cap(l.tail); len(l.tail) == c {
		if c == 0 {
			l.full = l.table[:0]
		} else {
			l.full = append(l.full, l.tail)
		}
		l.tail = make([]T, 0, min(max(2*c, logFloor), logCeil))
	}
	l.tail = append(l.tail, v)
	l.n++
}

// Fold returns the records in append order as one slice with
// len == cap == the number appended — nil for an empty log, the block itself (no copy)
// while there is only one, else one copy of all — and leaves the log as is.
func (l *Log[T]) Fold() []T {
	if len(l.full) == 0 {
		return l.tail[:l.n:l.n]
	}
	out := make([]T, 0, l.n)
	for _, b := range l.full {
		out = append(out, b...)
	}
	return append(out, l.tail...)
}
