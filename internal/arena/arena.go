// Package arena provides a chunked slab allocator for the engine hot
// paths. It generalizes the per-task scratch slab the MultiPrio
// scheduler uses (internal/core allocState): objects are handed out of
// large backing chunks so building a million-task graph or draining a
// million-event simulation pays one allocation per chunk instead of one
// per object.
//
// An Arena never frees individual objects — everything it handed out
// stays reachable until the arena itself is garbage: the intended
// lifetime is "one graph" or "one run", matching how the runtime uses
// tasks and handles. The zero value is ready to use.
package arena

// defaultChunk is the number of objects per backing chunk when the
// caller gave no sizing hint. 256 matches the MultiPrio slab.
const defaultChunk = 256

// Arena hands out values of type T from chunked backing arrays. Not
// safe for concurrent use; graph submission and the simulator event
// loop are single-threaded by construction.
type Arena[T any] struct {
	chunk []T
	// next is the chunk size of the next allocation; it doubles up to
	// maxChunk so pathological Get-only workloads stay O(log n) in
	// allocation count.
	next int
}

const maxChunk = 64 * 1024

// Reserve sizes the next backing chunk for at least n more objects, so
// a caller that knows its object count up front (NewGraphWithCapacity)
// gets exactly one chunk.
func (a *Arena[T]) Reserve(n int) {
	if n <= len(a.chunk) {
		return
	}
	if a.next < n-len(a.chunk) {
		a.next = n - len(a.chunk)
	}
}

// Get returns a pointer to a fresh zero value of T.
func (a *Arena[T]) Get() *T { return &a.GetN(1)[0] }

// GetN returns a contiguous block of n fresh zero values. Blocks larger
// than the remaining chunk get a dedicated exact-size chunk, so batch
// submission of n tasks costs at most one allocation.
func (a *Arena[T]) GetN(n int) []T {
	if n <= 0 {
		return nil
	}
	if len(a.chunk) < n {
		a.grow(n)
	}
	s := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	return s
}

// grow installs a fresh chunk of at least n objects, abandoning the
// remainder of the current chunk (callers hold pointers into it; it
// stays alive through them).
func (a *Arena[T]) grow(n int) {
	size := a.next
	if size < defaultChunk {
		size = defaultChunk
	}
	if size < n {
		size = n
	}
	a.chunk = make([]T, size)
	if size < maxChunk {
		a.next = size * 2
	} else {
		a.next = maxChunk
	}
}
