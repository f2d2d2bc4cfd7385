package sim

import (
	"fmt"
	"math"

	"multiprio/internal/obs"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/trace"
)

// replState is the coherence state of one (handle, memory node) replica.
type replState uint8

const (
	replInvalid replState = iota
	// replFetching: a transfer towards this node is in flight.
	replFetching
	replValid
)

// replica tracks one handle on one memory node. The struct is kept
// small (20 bytes, no pointer) deliberately: one slab of handles × nodes
// replicas is zeroed on every engine construction, and on million-handle
// graphs that zero (plus the first-touch page faults behind it) is a
// measurable slice of the whole run. The replica of handle id on node
// mem is replSlab[id*len(Mems)+mem]; the handle itself is handles[id].
type replica struct {
	// Intrusive per-node LRU links (handle IDs, -1 terminates). inLRU
	// marks list membership: a replica is listed exactly while it holds
	// space on the node (valid or fetching). Every touch moves the
	// replica to the list tail, so the list stays sorted by last use and
	// evictOne reads its victim off the head instead of scanning.
	lruPrev, lruNext int32
	pin              int32
	// xfer is the in-flight transfer record while state is replFetching;
	// whatever waits for this replica is parked on that record.
	xfer  int32
	state replState
	dirty bool
	// viaPrefetch marks a payload staged by a prefetch and not yet
	// consumed by an acquire; it feeds the prefetch hit/late/wasted
	// counters and is never read by placement or eviction decisions.
	viaPrefetch bool
	inLRU       bool
}

// slab is a free-listed pool of records addressed by index. It grows to
// the run's peak number of live records and then recycles them, so the
// records behind transfers, joins and waiters cost O(log peak)
// allocations per run instead of one or more per transfer.
type slab[T any] struct {
	recs []T
	free []int32
}

func (s *slab[T]) alloc(v T) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.recs[i] = v
		return i
	}
	s.recs = append(s.recs, v)
	return int32(len(s.recs) - 1)
}

func (s *slab[T]) release(i int32) {
	var zero T
	s.recs[i] = zero
	s.free = append(s.free, i)
}

// xferRec is one in-flight transfer, alive from fetch (or write-back)
// until its payload is accepted or dropped; a failed transfer re-issues
// on the same record, its waiters still parked.
type xferRec struct {
	// gen is the handle's write count when the payload left the source;
	// a write landing mid-flight makes the payload stale.
	gen                       int64
	handle                    int32
	src, dst                  platform.MemID
	prefetch, writeback, fail bool
	// wHead/wTail are the FIFO of waiters parked on the arrival (-1: none).
	wHead, wTail int32
}

// waiter is one continuation parked on a transfer record.
type waiter struct {
	kind waiterKind
	// prefetch and mem qualify wRefetch (the fetch to retry) and wDrop
	// (the node to drop from).
	prefetch bool
	mem      platform.MemID
	id       int32 // wJoin: join record; wRefetch, wDrop: handle ID
	cont     int32 // wRefetch: waiter to run when the retried fetch lands, or -1
	next     int32 // list link
}

type waiterKind uint8

const (
	wJoin    waiterKind = iota // one need of an acquire became available
	wRefetch                   // the sole copy was in flight: fetch again from where it landed
	wDrop                      // loseNode deferred a replica drop behind a RAM transfer
)

// joinRec joins the asynchronous staging of one acquire: pending counts
// the needs still in flight, and the last one to land stages attempt a —
// unless a rollback detached it (NoAttempt).
type joinRec struct {
	pending int32
	a       runtime.Attempt
}

// lruList is one node's recency list, least-recently-used first (-1
// when empty). A node is listed only if something can read its list:
// evictOne, when the node has a capacity, or loseNode, when it is a
// device node. Uncapped host RAM — the home of every handle on every
// preset — is neither: it keeps no list, and a touch there only
// consumes its sequence number.
type lruList struct {
	head, tail int32
	listed     bool
}

// linkState serializes transfers on one directed link (FIFO: PCIe lane
// contention).
type linkState struct {
	busyUntil float64
}

// memoryManager owns data placement: replica states, per-node capacity
// accounting, LRU eviction with dirty write-back, and the transfer
// engine. It implements runtime.DataLocator for the schedulers.
type memoryManager struct {
	eng     *simulation
	machine *platform.Machine
	// handles is the graph's handle table (ID = index); replSlab holds
	// every (handle, node) replica and hs each handle's size and
	// completed writes: transfers in flight across a write carry stale
	// payloads and are dropped on arrival. None of the per-handle state
	// has a pointer, and the hot paths read a handle's size from hs
	// without a load through its *DataHandle.
	handles  []*runtime.DataHandle
	replSlab []replica
	hs       []handleRec
	used     []int64 // bytes resident or inbound per node
	overflow []int64 // bytes accepted beyond capacity per node
	// lru holds the per-node intrusive LRU lists over the replica links
	// above. They replace the seed's resident-ID slices, whose full
	// linear scan per eviction dominated memory-starved runs.
	lru   []lruList
	links [][]linkState

	xfers   slab[xferRec]
	waiters slab[waiter]
	joins   slab[joinRec]

	// xferLog and eventLog take every transfer and (with CollectMemEvents)
	// replica state change; a run that succeeds folds them into the trace.
	xferLog  trace.Log[trace.Transfer]
	eventLog trace.Log[trace.MemEvent]

	// needsScratch is reused across acquire calls (the event loop is
	// single-threaded and acquire never nests, so one buffer suffices).
	needsScratch []acquireNeed

	// Observability (nil probe disables all of it): prebuilt per-node
	// track names plus the running totals behind the counter tracks.
	probe        obs.Probe
	usedTrack    []string
	evictTrack   []string
	ovTrack      []string
	evictions    []int64
	inflight     int64
	prefetchHit  int64
	prefetchLate int64
	prefetchLost int64
}

// handleRec is the memory manager's state of one handle: its size, and
// its completed writes (the version a transfer's payload carries).
type handleRec struct {
	bytes, gen int64
}

// acquireNeed is one distinct handle an acquire must make available.
type acquireNeed struct {
	id   int32
	read bool
}

func newMemoryManager(eng *simulation, g *runtime.Graph) *memoryManager {
	m := eng.machine
	mm := &memoryManager{
		eng:      eng,
		machine:  m,
		handles:  g.Handles,
		replSlab: make([]replica, len(g.Handles)*len(m.Mems)),
		hs:       make([]handleRec, len(g.Handles)),
		used:     make([]int64, len(m.Mems)),
		overflow: make([]int64, len(m.Mems)),
		lru:      make([]lruList, len(m.Mems)),
		links:    make([][]linkState, len(m.Mems)),
	}
	for i := range mm.links {
		mm.links[i] = make([]linkState, len(m.Mems))
		mm.lru[i] = lruList{head: -1, tail: -1,
			listed: m.Mems[i].CapacityBytes > 0 || platform.MemID(i) != platform.MemRAM}
	}
	for i, h := range g.Handles {
		if h.ID != int64(i) {
			panic(fmt.Sprintf("sim: handle %d registered at index %d", h.ID, i))
		}
		mm.hs[i].bytes = h.Bytes
		mm.repl(h.ID, h.Home).state = replValid
		mm.used[h.Home] += h.Bytes
		mm.lruPush(h.Home, h.ID)
	}
	if eng.Probe != nil {
		mm.probe = eng.Probe
		mm.usedTrack = make([]string, len(m.Mems))
		mm.evictTrack = make([]string, len(m.Mems))
		mm.ovTrack = make([]string, len(m.Mems))
		mm.evictions = make([]int64, len(m.Mems))
		for i, mn := range m.Mems {
			mm.usedTrack[i] = "mem.used[" + mn.Name + "]"
			mm.evictTrack[i] = "mem.evictions[" + mn.Name + "]"
			mm.ovTrack[i] = "mem.overflow[" + mn.Name + "]"
			// Initial residency (home placement), sampled at t=0.
			mm.probe.Counter(mm.usedTrack[i], 0, 0, float64(mm.used[i]))
		}
	}
	return mm
}

// row returns the replicas of handle id, indexed by MemID.
func (mm *memoryManager) row(id int64) []replica {
	n := int64(len(mm.used))
	return mm.replSlab[id*n : (id+1)*n]
}

// repl returns the replica of handle id on mem.
func (mm *memoryManager) repl(id int64, mem platform.MemID) *replica {
	return &mm.replSlab[id*int64(len(mm.used))+int64(mem)]
}

// lruPush appends the replica of handle id to the tail of mem's LRU
// list. Callers guarantee it is not already listed (replicas enter the
// list exactly when their space is reserved).
func (mm *memoryManager) lruPush(mem platform.MemID, id int64) {
	l := &mm.lru[mem]
	if !l.listed {
		return
	}
	r := mm.repl(id, mem)
	if r.inLRU {
		panic(fmt.Sprintf("sim: handle %d double-listed on mem %d", id, mem))
	}
	r.inLRU = true
	r.lruNext = -1
	r.lruPrev = l.tail
	if r.lruPrev >= 0 {
		mm.repl(int64(r.lruPrev), mem).lruNext = int32(id)
	} else {
		l.head = int32(id)
	}
	l.tail = int32(id)
}

// lruRemove unlinks the replica of handle id from mem's LRU list (on an
// unlisted node no replica is ever inLRU).
func (mm *memoryManager) lruRemove(mem platform.MemID, id int64) {
	r := mm.repl(id, mem)
	if !r.inLRU {
		return
	}
	l := &mm.lru[mem]
	if r.lruPrev >= 0 {
		mm.repl(int64(r.lruPrev), mem).lruNext = r.lruNext
	} else {
		l.head = r.lruNext
	}
	if r.lruNext >= 0 {
		mm.repl(int64(r.lruNext), mem).lruPrev = r.lruPrev
	} else {
		l.tail = r.lruPrev
	}
	r.inLRU = false
}

// lruTouch moves a listed replica to the tail on every use, which keeps
// the list sorted by last use: the head is exactly the victim the
// seed's min-lastUse scan picked. Each touch also consumes a sequence
// number (it was the seed's lastUse stamp), so the linearization points
// of everything after it are unchanged.
func (mm *memoryManager) lruTouch(mem platform.MemID, id int64) {
	mm.eng.nextSeq()
	if l := &mm.lru[mem]; !l.listed || int64(l.tail) == id || !mm.repl(id, mem).inLRU {
		return
	}
	mm.lruRemove(mem, id)
	mm.lruPush(mem, id)
}

// noteUsed samples the used-bytes counter of mem; call after every
// mutation of mm.used so the Perfetto track shows exact residency.
func (mm *memoryManager) noteUsed(mem platform.MemID) {
	if mm.probe != nil {
		mm.probe.Counter(mm.usedTrack[mem], mm.eng.now, mm.eng.seq, float64(mm.used[mem]))
	}
}

// event records a replica state change for the execution oracle when
// mem-event collection is on. Seq is assigned at the moment of the
// change, so the event stream is an exact linearization.
func (mm *memoryManager) event(kind trace.MemEventKind, id int64, mem platform.MemID, version int64) {
	if !mm.eng.cfg.CollectMemEvents {
		return
	}
	mm.eventLog.Append(trace.MemEvent{
		Kind: kind, Handle: id, Mem: mem, Bytes: mm.hs[id].bytes,
		Version: version, At: mm.eng.now, Seq: mm.eng.nextSeq(),
	})
}

// Resident implements runtime.DataLocator.
func (mm *memoryManager) Resident(h int32, mem platform.MemID) (int64, bool) {
	return mm.hs[h].bytes, mm.repl(int64(h), mem).state == replValid
}

// TransferEstimate implements runtime.DataLocator: time to bring h to
// mem from the closest valid replica, ignoring queueing.
func (mm *memoryManager) TransferEstimate(h int32, mem platform.MemID) float64 {
	row := mm.row(int64(h))
	if row[mem].state == replValid {
		return 0
	}
	bytes := mm.hs[h].bytes
	best := math.Inf(1)
	for src := range row {
		if row[src].state != replValid {
			continue
		}
		if t := mm.machine.TransferTime(platform.MemID(src), mem, bytes); t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		// Sole copy in flight somewhere: approximate with home->mem.
		return mm.machine.TransferTime(mm.handles[h].Home, mem, bytes)
	}
	return best
}

// acquire pins all of attempt at's data on mem, fetching what is
// missing. It returns -1 when everything is already available; otherwise
// the join record that stages at when the last fetch lands (never within
// this call: arrivals are events). Write-only accesses allocate without
// fetching the previous contents.
func (mm *memoryManager) acquire(at runtime.Attempt, mem platform.MemID) int32 {
	// Needs keep the access-list order: iterating a map here made the
	// fetch issue order — and through link FIFO queueing, the whole
	// simulation — nondeterministic across runs of the same graph.
	// Deduplication is a linear scan over the few accesses a task has,
	// made only for a task that names some handle twice.
	needs := mm.needsScratch[:0]
	t := mm.eng.Task(at)
	for _, u := range t.Uses() {
		i := -1
		if t.Repeats() {
			for j := range needs {
				if needs[j].id == u.Handle {
					i = j
					break
				}
			}
		}
		if i < 0 {
			i = len(needs)
			needs = append(needs, acquireNeed{id: u.Handle})
		}
		if u.Mode.IsRead() {
			needs[i].read = true
		}
	}
	mm.needsScratch = needs[:0]
	// The join record is allocated lazily, on the first need that has to
	// wait: acquires whose data is already resident (or
	// write-allocatable) touch no slab, which most of a large run's do.
	j := int32(-1)
	for _, n := range needs {
		id := int64(n.id)
		r := mm.repl(id, mem)
		r.pin++
		mm.lruTouch(mem, id)
		if n.read && r.viaPrefetch {
			// A prefetched payload is being consumed: a hit when it
			// already landed, late when the demand caught the transfer
			// still in flight. Counted once per staged payload.
			r.viaPrefetch = false
			if mm.probe != nil {
				if r.state == replValid {
					mm.prefetchHit++
					mm.probe.Counter("sim.prefetch.hits", mm.eng.now, mm.eng.seq, float64(mm.prefetchHit))
				} else {
					mm.prefetchLate++
					mm.probe.Counter("sim.prefetch.late", mm.eng.now, mm.eng.seq, float64(mm.prefetchLate))
				}
			}
		}
		switch {
		case r.state == replValid:
			// Already here.
		case !n.read && r.state == replInvalid:
			// Write-only: allocate space, no fetch of old contents. The
			// state flips before allocate so the eviction walk inside
			// allocate sees a live (non-evictable) entry.
			r.state = replValid
			mm.allocate(mem, id)
			mm.event(trace.MemValid, id, mem, mm.hs[id].gen)
			if mm.eng.Plan != nil {
				// A rollback frees exactly these replicas: they hold
				// uninitialized space, not data. Only a fault plan rolls
				// an attempt back.
				h := &mm.eng.held[at]
				h.wallocs = append(h.wallocs, n.id)
			}
		default:
			// Fetch, or (write-only over an in-flight prefetch, whose
			// space is already accounted) let the transfer land.
			if j < 0 {
				j = mm.joins.alloc(joinRec{a: at})
			}
			mm.joins.recs[j].pending++
			mm.fetch(id, mem, false, mm.waiters.alloc(waiter{kind: wJoin, id: j}))
		}
	}
	return j
}

// park appends waiter w (-1: none) to the arrival list of transfer x.
func (mm *memoryManager) park(x, w int32) {
	if w < 0 {
		return
	}
	mm.waiters.recs[w].next = -1
	rec := &mm.xfers.recs[x]
	if rec.wTail < 0 {
		rec.wHead = w
	} else {
		mm.waiters.recs[rec.wTail].next = w
	}
	rec.wTail = w
}

// resume runs the continuation of waiter w (-1: none) and recycles it.
func (mm *memoryManager) resume(w int32) {
	if w < 0 {
		return
	}
	n := mm.waiters.recs[w]
	mm.waiters.release(w)
	switch n.kind {
	case wJoin:
		j := &mm.joins.recs[n.id]
		if j.pending--; j.pending == 0 {
			a := j.a
			mm.joins.release(n.id)
			if a != runtime.NoAttempt {
				mm.eng.taskStaged(a)
			}
		}
	case wRefetch:
		mm.fetch(int64(n.id), n.mem, n.prefetch, n.cont)
	case wDrop:
		mm.dropReplica(int64(n.id), n.mem)
	}
}

// release unpins t's data on mem and applies write effects: written
// handles become dirty sole copies on mem.
func (mm *memoryManager) release(t *runtime.Task, mem platform.MemID) {
	uses := t.Uses()
	for ui, u := range uses {
		id := int64(u.Handle)
		row := mm.row(id)
		r := &row[mem]
		if !t.Repeats() || firstUse(uses, ui) {
			r.pin--
			if r.pin < 0 {
				panic("sim: negative pin count")
			}
			mm.lruTouch(mem, id)
		}
		if u.Mode.IsWrite() {
			r.state = replValid
			// Dirty means "RAM does not hold this value": meaningful
			// only away from the RAM node (write-backs target RAM).
			r.dirty = mem != platform.MemRAM
			mm.hs[id].gen++ // in-flight fetches now carry stale payloads
			mm.event(trace.MemValid, id, mem, mm.hs[id].gen)
			for other := range row {
				if o := &row[other]; platform.MemID(other) != mem && o.state == replValid {
					o.viaPrefetch = false
					mm.invalidate(id, platform.MemID(other))
				}
			}
		}
	}
}

// firstUse reports whether uses[ui] is the first use of its handle.
func firstUse(uses []runtime.Use, ui int) bool {
	for _, prev := range uses[:ui] {
		if prev.Handle == uses[ui].Handle {
			return false
		}
	}
	return true
}

// invalidate turns the replica of handle id on mem invalid and releases
// its space: the shared tail of eviction, write invalidation,
// stale-payload drops, abort rollbacks and node loss.
func (mm *memoryManager) invalidate(id int64, mem platform.MemID) {
	r := mm.repl(id, mem)
	r.state = replInvalid
	r.dirty = false
	mm.used[mem] -= mm.hs[id].bytes
	mm.lruRemove(mem, id)
	mm.event(trace.MemFree, id, mem, 0)
	mm.noteUsed(mem)
}

// notePrefetchWasted settles a staged prefetch payload that is going
// away before any acquire consumed it.
func (mm *memoryManager) notePrefetchWasted(r *replica) {
	if !r.viaPrefetch {
		return
	}
	r.viaPrefetch = false
	if mm.probe != nil {
		mm.prefetchLost++
		mm.probe.Counter("sim.prefetch.wasted", mm.eng.now, mm.eng.seq, float64(mm.prefetchLost))
	}
}

// prefetch stages t's read data on mem without pinning.
func (mm *memoryManager) prefetch(t *runtime.Task, mem platform.MemID) {
	for _, u := range t.Uses() {
		if id := int64(u.Handle); u.Mode != runtime.W && mm.repl(id, mem).state == replInvalid {
			mm.fetch(id, mem, true, -1)
		}
	}
}

// fetch brings handle id to dst; waiter w (-1: none) resumes when the
// replica is valid.
func (mm *memoryManager) fetch(id int64, dst platform.MemID, isPrefetch bool, w int32) {
	row := mm.row(id)
	r := &row[dst]
	switch r.state {
	case replValid:
		mm.resume(w)
		return
	case replFetching:
		mm.park(r.xfer, w)
		return
	}
	// Pick the source: prefer RAM, then any valid replica.
	src := platform.MemID(-1)
	if row[platform.MemRAM].state == replValid {
		src = platform.MemRAM
	} else {
		for i := range row {
			if row[i].state == replValid {
				src = platform.MemID(i)
				break
			}
		}
	}
	if src < 0 {
		// The sole copy is in flight (e.g. an eviction write-back to
		// RAM). Chain onto its arrival, then retry.
		for i := range row {
			if row[i].state == replFetching && platform.MemID(i) != dst {
				mm.park(row[i].xfer, mm.waiters.alloc(waiter{
					kind: wRefetch, id: int32(id), mem: dst, prefetch: isPrefetch, cont: w}))
				return
			}
		}
		panic(fmt.Sprintf("sim: handle %q has no valid or in-flight replica", mm.handles[id].Name))
	}
	r.state = replFetching
	r.viaPrefetch = isPrefetch
	r.xfer = mm.xfers.alloc(xferRec{handle: int32(id), src: src, dst: dst, prefetch: isPrefetch, wHead: -1, wTail: -1})
	mm.park(r.xfer, w)
	mm.allocate(dst, id)
	mm.transfer(r.xfer)
}

// allocate reserves space for handle id on mem, evicting LRU unpinned
// replicas when over capacity. Allocation never blocks: if nothing is
// evictable the node overflows (counted, reported), which keeps the
// simulation deadlock-free while still surfacing memory pressure.
func (mm *memoryManager) allocate(mem platform.MemID, id int64) {
	// Evict before reserving, not after: the node must never transiently
	// exceed capacity without the overshoot being counted as overflow.
	bytes := mm.hs[id].bytes
	cap := mm.machine.Mems[mem].CapacityBytes
	if cap > 0 {
		for mm.used[mem]+bytes > cap {
			if !mm.evictOne(mem, id) {
				mm.overflow[mem] += mm.used[mem] + bytes - cap
				if mm.probe != nil {
					mm.probe.Counter(mm.ovTrack[mem], mm.eng.now, mm.eng.seq, float64(mm.overflow[mem]))
				}
				break
			}
		}
	}
	mm.used[mem] += bytes
	mm.event(trace.MemAlloc, id, mem, 0)
	mm.lruPush(mem, id)
	mm.noteUsed(mem)
}

// evictOne drops the least-recently-used unpinned valid replica on mem,
// write-backing dirty sole copies to RAM. Returns false when nothing is
// evictable. The walk starts at the LRU head — the least recent use —
// and stops at the first evictable entry, which is the exact victim the
// seed's full min-lastUse scan selected; skipped entries are pinned,
// mid-fetch, protected, or write-back-blocked.
func (mm *memoryManager) evictOne(mem platform.MemID, protect int64) bool {
	id := int64(mm.lru[mem].head)
	for id >= 0 {
		r := mm.repl(id, mem)
		// A dirty sole copy is unevictable while RAM is replFetching: the
		// in-flight payload may predate the latest write (it would be
		// dropped stale on arrival), and the write-back that would save
		// this value cannot start until that transfer lands. Evicting
		// here would discard the only copy.
		evictable := r.state == replValid && r.pin == 0 && id != protect &&
			!(r.dirty && mm.repl(id, platform.MemRAM).state == replFetching)
		if evictable {
			break
		}
		id = int64(r.lruNext)
	}
	if id < 0 {
		return false
	}
	r := mm.repl(id, mem)
	// A prefetched payload evicted before any acquire touched it was
	// wasted bandwidth.
	mm.notePrefetchWasted(r)
	if r.dirty {
		// Sole copy: push it back to RAM. The bytes leave this node
		// now; readers chase the RAM replica which is replFetching
		// until the write-back lands.
		switch mm.repl(id, platform.MemRAM).state {
		case replValid:
			panic("sim: dirty replica coexists with valid RAM copy")
		case replInvalid:
			mm.writeBack(id, mem)
		}
	}
	mm.invalidate(id, mem)
	if mm.probe != nil {
		mm.evictions[mem]++
		mm.probe.Counter(mm.evictTrack[mem], mm.eng.now, mm.eng.seq, float64(mm.evictions[mem]))
	}
	return true
}

// writeBack starts the transfer of handle id's sole copy from src to
// RAM. RAM is never capacity-evicted for a write-back: the space is
// taken without the eviction walk of allocate.
func (mm *memoryManager) writeBack(id int64, src platform.MemID) {
	ram := mm.repl(id, platform.MemRAM)
	ram.state = replFetching
	ram.xfer = mm.xfers.alloc(xferRec{handle: int32(id), src: src, dst: platform.MemRAM, writeback: true, wHead: -1, wTail: -1})
	mm.used[platform.MemRAM] += mm.hs[id].bytes
	mm.event(trace.MemAlloc, id, platform.MemRAM, 0)
	mm.lruPush(platform.MemRAM, id)
	mm.noteUsed(platform.MemRAM)
	mm.transfer(ram.xfer)
}

// transfer issues (or, after a failure, re-issues) transfer record x on
// its FIFO link; the payload arrives as an evXferDone event.
func (mm *memoryManager) transfer(x int32) {
	rec := &mm.xfers.recs[x]
	h := &mm.hs[rec.handle]
	link := &mm.links[rec.src][rec.dst]
	start := mm.eng.now
	if link.busyUntil > start {
		start = link.busyUntil
	}
	end := start + mm.machine.TransferTime(rec.src, rec.dst, h.bytes)
	link.busyUntil = end
	// A transfer whose occupancy starts inside a failure window of this
	// link fails: it burns the link time, then drops on arrival and a
	// fresh transfer is issued. Windows are finite, so retries terminate.
	rec.fail = mm.eng.Plan.TransferFails(rec.src, rec.dst, start)
	rec.gen = h.gen
	mm.xferLog.Append(trace.Transfer{
		Handle: int64(rec.handle), Src: rec.src, Dst: rec.dst, Bytes: h.bytes,
		Start: start, End: end, Prefetch: rec.prefetch, Writeback: rec.writeback,
		Failed: rec.fail,
	})
	if mm.probe != nil {
		mm.inflight++
		mm.probe.Counter("sim.transfers.inflight", mm.eng.now, mm.eng.seq, float64(mm.inflight))
	}
	mm.eng.schedule(end, evXferDone, x)
}

// transferDone lands the payload of transfer record x: the destination
// turns valid and the parked waiters resume — unless the payload failed
// in flight (re-issued) or a write overtook it (dropped, waiters
// re-fetch the fresh value).
func (mm *memoryManager) transferDone(x int32) {
	if mm.probe != nil {
		mm.inflight--
		mm.probe.Counter("sim.transfers.inflight", mm.eng.now, mm.eng.seq, float64(mm.inflight))
	}
	rec := mm.xfers.recs[x]
	id, dst := int64(rec.handle), rec.dst
	r := mm.repl(id, dst)
	if r.state != replFetching || r.xfer != x {
		panic(fmt.Sprintf("sim: transfer of %q landed on a replica not waiting for it", mm.handles[id].Name))
	}
	if rec.fail {
		// The payload was corrupted in flight: drop it and retry the
		// same route. Waiters stay parked on the record; the space
		// stays accounted (still replFetching).
		mm.eng.Faults.TransferFailures++
		mm.transfer(x)
		return
	}
	mm.xfers.release(x)
	stale := mm.hs[id].gen != rec.gen
	if stale {
		// A write completed elsewhere during the flight: drop the payload
		// and re-fetch the fresh value for anyone still waiting.
		mm.invalidate(id, dst)
		mm.notePrefetchWasted(r)
	} else {
		r.state = replValid
		mm.lruTouch(dst, id)
		mm.event(trace.MemValid, id, dst, rec.gen)
		if dst == platform.MemRAM {
			// RAM now holds the current value: no replica is the sole
			// (dirty) copy anymore.
			row := mm.row(id)
			for i := range row {
				row[i].dirty = false
			}
		}
	}
	for w := rec.wHead; w >= 0; {
		next := mm.waiters.recs[w].next // w is re-linked or recycled below
		if stale {
			mm.fetch(id, dst, false, w)
		} else {
			mm.resume(w)
		}
		w = next
	}
}

// abortAcquire undoes a rolled-back attempt's acquire on mem: unpin every
// distinct handle of t, and free the replicas the acquire itself
// write-allocated (they hold uninitialized space, never a committed
// value — leaving them valid would let a later reader see garbage).
// In-flight fetches started by the acquire are left to land: they
// become ordinary unpinned replicas, like a prefetch would.
func (mm *memoryManager) abortAcquire(t *runtime.Task, mem platform.MemID, wallocs []int32) {
	uses := t.Uses()
	for ui, u := range uses {
		if t.Repeats() && !firstUse(uses, ui) {
			continue
		}
		r := mm.repl(int64(u.Handle), mem)
		r.pin--
		if r.pin < 0 {
			panic("sim: negative pin count in rollback")
		}
	}
	for _, h := range wallocs {
		if r := mm.repl(int64(h), mem); r.state == replValid && r.pin == 0 {
			mm.invalidate(int64(h), mem)
		}
	}
}

// loseNode handles a memory node whose last worker was killed: valid
// replicas there are lost to the schedulers and must be re-fetchable
// from the coherence state. Sole copies are drained to RAM first (the
// DMA engine survives the cores, as on a real accelerator), then every
// valid replica is invalidated. In-flight inbound transfers are left
// to land — a landed payload on a dead node can still serve as a
// transfer source during the drain. Replicas drain in LRU order (the
// node's recency list is the only order it keeps); the order is stable
// for a given seed and plan, preserving run-to-run determinism.
// Returns the number of replicas dropped (or doomed to drop once a
// pending RAM transfer resolves).
func (mm *memoryManager) loseNode(mem platform.MemID) int {
	if mem == platform.MemRAM {
		return 0 // host RAM persists; only device memories are lost
	}
	lost := 0
	var list []int64
	for id := mm.lru[mem].head; id >= 0; id = mm.repl(int64(id), mem).lruNext {
		list = append(list, int64(id))
	}
	for _, id := range list {
		row := mm.row(id)
		r := &row[mem]
		if r.state != replValid || r.pin > 0 {
			// Fetching: inbound DMA, let it drain. Pinned: unreachable —
			// every attempt on this node was aborted (and unpinned)
			// before the node is lost.
			continue
		}
		other := false
		for i := range row {
			if platform.MemID(i) != mem && row[i].state == replValid {
				other = true
				break
			}
		}
		ram := &row[platform.MemRAM]
		if other {
			if r.dirty && ram.state != replValid {
				// The surviving copies were fetched from this one and
				// are clean. One of them must inherit the write-back
				// responsibility, or the value silently vanishes the
				// moment the last clean copy is evicted.
				for i := range row {
					if platform.MemID(i) != mem && platform.MemID(i) != platform.MemRAM &&
						row[i].state == replValid {
						row[i].dirty = true
						break
					}
				}
			}
			mm.dropReplica(id, mem)
			lost++
			continue
		}
		// Sole copy: it must reach RAM before the replica can drop.
		switch ram.state {
		case replFetching:
			// A transfer towards RAM is already in flight, possibly with
			// a stale payload. Defer the drop until RAM resolves to the
			// current value (the stale-drop path re-fetches from this
			// still-valid replica, then our waiter runs).
			mm.park(ram.xfer, mm.waiters.alloc(waiter{kind: wDrop, id: int32(id), mem: mem}))
			lost++
		case replInvalid:
			// The transfer models a snapshot: the source may drop now,
			// and readers chase the RAM replica.
			mm.writeBack(id, mem)
			mm.dropReplica(id, mem)
			lost++
		}
	}
	return lost
}

// dropReplica invalidates one valid unpinned replica and releases its
// accounting. No-op if the replica moved on in the meantime (deferred
// drops race with normal invalidation).
func (mm *memoryManager) dropReplica(id int64, mem platform.MemID) {
	r := mm.repl(id, mem)
	if r.state != replValid || r.pin > 0 {
		return
	}
	mm.notePrefetchWasted(r)
	mm.invalidate(id, mem)
}
