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

// replica tracks one handle on one memory node. The struct is kept at
// 24 bytes deliberately: one slab of handles × nodes replicas is zeroed
// on every engine construction, and on million-handle graphs that zero
// (plus the first-touch page faults behind it) is a measurable slice of
// the whole run. Waiter callbacks live out-of-line in the manager's
// waitq map — they exist only for the handful of replicas mid-fetch at
// any instant, not for the whole slab.
type replica struct {
	lastUse int64 // engine sequence number of last touch, for LRU
	// Intrusive per-node LRU links (handle IDs, -1 terminates). inLRU
	// marks list membership: a replica is listed exactly while it holds
	// space on the node (valid or fetching). Every lastUse update moves
	// the replica to the list tail, so the list stays sorted by lastUse
	// and evictOne reads its victim off the head instead of scanning.
	lruPrev, lruNext int32
	pin              int32
	state            replState
	dirty            bool
	// viaPrefetch marks a payload staged by a prefetch and not yet
	// consumed by an acquire; it feeds the prefetch hit/late/wasted
	// counters and is never read by placement or eviction decisions.
	viaPrefetch bool
	inLRU       bool
}

// handleState is the per-handle coherence record.
type handleState struct {
	h    *runtime.DataHandle
	repl []replica // indexed by MemID
	// gen counts completed writes; transfers in flight across a write
	// carry stale payloads and are dropped on arrival.
	gen int64
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
	// states is a value slab indexed by handle ID, with every per-node
	// replica record carved out of one shared backing array: graph
	// build and manager setup cost two allocations total instead of two
	// per handle.
	states   []handleState
	replSlab []replica
	used     []int64 // bytes resident or inbound per node
	overflow []int64 // bytes accepted beyond capacity per node
	// lruHead/lruTail are the per-node intrusive LRU lists over the
	// replica links above, least-recently-used first (-1 when empty).
	// They replace the seed's resident-ID slices, whose full linear
	// scan per eviction dominated memory-starved runs.
	lruHead []int32
	lruTail []int32
	links   [][]linkState

	// waitq holds the callbacks parked on fetching replicas, keyed by
	// handleID*len(Mems)+mem (see wkey). Kept off the replica slab so
	// idle replicas cost no slice header; entries are consumed when the
	// replica's transfer lands and otherwise persist exactly as the old
	// in-struct waiter slices did.
	waitq map[int64][]func()

	// needsScratch is reused across acquire calls (the event loop is
	// single-threaded and acquire never nests, so one buffer suffices;
	// the former per-call map + slice allocations dominated acquire's
	// cost on large runs).
	needsScratch []acquireNeed

	// wallocDst, when non-nil for the duration of one acquire, collects
	// the handles that acquire write-allocated (invalid -> valid without
	// a fetch). A fault abort must free exactly those replicas: they
	// hold uninitialized space, not data. Only set on fault runs.
	wallocDst *[]*runtime.DataHandle

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

// acquireNeed is one distinct handle an acquire must make available.
type acquireNeed struct {
	h    *runtime.DataHandle
	read bool
}

func newMemoryManager(eng *simulation, g *runtime.Graph) *memoryManager {
	m := eng.machine
	mm := &memoryManager{
		eng:      eng,
		machine:  m,
		states:   make([]handleState, len(g.Handles)),
		replSlab: make([]replica, len(g.Handles)*len(m.Mems)),
		used:     make([]int64, len(m.Mems)),
		overflow: make([]int64, len(m.Mems)),
		lruHead:  make([]int32, len(m.Mems)),
		lruTail:  make([]int32, len(m.Mems)),
		links:    make([][]linkState, len(m.Mems)),
	}
	for i := range mm.links {
		mm.links[i] = make([]linkState, len(m.Mems))
		mm.lruHead[i] = -1
		mm.lruTail[i] = -1
	}
	for _, h := range g.Handles {
		if int(h.ID) >= len(mm.states) {
			panic(fmt.Sprintf("sim: handle ID %d out of range", h.ID))
		}
		st := &mm.states[h.ID]
		st.h = h
		st.repl = mm.replSlab[int(h.ID)*len(m.Mems) : (int(h.ID)+1)*len(m.Mems)]
		st.repl[h.Home] = replica{state: replValid}
		mm.used[h.Home] += h.Bytes
		mm.lruPush(h.Home, h.ID)
	}
	if eng.probe != nil {
		mm.probe = eng.probe
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

// lruPush appends the replica of handle id to the tail of mem's LRU
// list. Callers guarantee it is not already listed (replicas enter the
// list exactly when their space is reserved).
func (mm *memoryManager) lruPush(mem platform.MemID, id int64) {
	r := &mm.states[id].repl[mem]
	if r.inLRU {
		panic(fmt.Sprintf("sim: handle %d double-listed on mem %d", id, mem))
	}
	r.inLRU = true
	r.lruNext = -1
	r.lruPrev = mm.lruTail[mem]
	if r.lruPrev >= 0 {
		mm.states[r.lruPrev].repl[mem].lruNext = int32(id)
	} else {
		mm.lruHead[mem] = int32(id)
	}
	mm.lruTail[mem] = int32(id)
}

// lruRemove unlinks the replica of handle id from mem's LRU list.
func (mm *memoryManager) lruRemove(mem platform.MemID, id int64) {
	r := &mm.states[id].repl[mem]
	if !r.inLRU {
		return
	}
	if r.lruPrev >= 0 {
		mm.states[r.lruPrev].repl[mem].lruNext = r.lruNext
	} else {
		mm.lruHead[mem] = r.lruNext
	}
	if r.lruNext >= 0 {
		mm.states[r.lruNext].repl[mem].lruPrev = r.lruPrev
	} else {
		mm.lruTail[mem] = r.lruPrev
	}
	r.inLRU = false
}

// lruTouch moves a listed replica to the tail. Every lastUse assignment
// routes through it, which keeps the list sorted by lastUse: sequence
// numbers increase monotonically, so the head is always the minimum —
// exactly the victim the seed's min-lastUse scan picked.
func (mm *memoryManager) lruTouch(mem platform.MemID, id int64) {
	r := &mm.states[id].repl[mem]
	if !r.inLRU || int64(mm.lruTail[mem]) == id {
		return
	}
	mm.lruRemove(mem, id)
	mm.lruPush(mem, id)
}

// wkey addresses one (handle, mem) replica in the waitq map.
func (mm *memoryManager) wkey(id int64, mem platform.MemID) int64 {
	return id*int64(len(mm.machine.Mems)) + int64(mem)
}

// addWaiter parks cb until the replica of handle id on mem turns valid.
func (mm *memoryManager) addWaiter(id int64, mem platform.MemID, cb func()) {
	if mm.waitq == nil {
		mm.waitq = make(map[int64][]func())
	}
	k := mm.wkey(id, mem)
	mm.waitq[k] = append(mm.waitq[k], cb)
}

// takeWaiters removes and returns the callbacks parked on (id, mem).
func (mm *memoryManager) takeWaiters(id int64, mem platform.MemID) []func() {
	if mm.waitq == nil {
		return nil
	}
	k := mm.wkey(id, mem)
	ws := mm.waitq[k]
	if ws != nil {
		delete(mm.waitq, k)
	}
	return ws
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
func (mm *memoryManager) event(kind trace.MemEventKind, h *runtime.DataHandle, mem platform.MemID, version int64) {
	if !mm.eng.cfg.CollectMemEvents {
		return
	}
	mm.eng.tr.AddMemEvent(trace.MemEvent{
		Kind: kind, Handle: h.ID, Mem: mem, Bytes: h.Bytes,
		Version: version, At: mm.eng.now, Seq: mm.eng.nextSeq(),
	})
}

// IsResident implements runtime.DataLocator.
func (mm *memoryManager) IsResident(h *runtime.DataHandle, mem platform.MemID) bool {
	return mm.states[h.ID].repl[mem].state == replValid
}

// TransferEstimate implements runtime.DataLocator: time to bring h to
// mem from the closest valid replica, ignoring queueing.
func (mm *memoryManager) TransferEstimate(h *runtime.DataHandle, mem platform.MemID) float64 {
	st := &mm.states[h.ID]
	if st.repl[mem].state == replValid {
		return 0
	}
	best := math.Inf(1)
	for src := range st.repl {
		if st.repl[src].state != replValid {
			continue
		}
		if t := mm.machine.TransferTime(platform.MemID(src), mem, h.Bytes); t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		// Sole copy in flight somewhere: approximate with home->mem.
		return mm.machine.TransferTime(st.h.Home, mem, h.Bytes)
	}
	return best
}

// acquire pins all of t's data on mem, fetching what is missing, and
// calls done when everything is available. Write-only accesses allocate
// without fetching the previous contents.
func (mm *memoryManager) acquire(t *runtime.Task, mem platform.MemID, done func()) {
	// Needs keep the access-list order: iterating a map here made the
	// fetch issue order — and through link FIFO queueing, the whole
	// simulation — nondeterministic across runs of the same seed.
	// Deduplication is a linear scan over the few accesses a task has.
	wallocs := mm.wallocDst
	mm.wallocDst = nil // re-entrancy safety: scoped to this call only
	needs := mm.needsScratch[:0]
	for _, a := range t.Accesses {
		i := -1
		for j := range needs {
			if needs[j].h.ID == a.Handle.ID {
				i = j
				break
			}
		}
		if i < 0 {
			i = len(needs)
			needs = append(needs, acquireNeed{h: a.Handle})
		}
		if a.Mode.IsRead() {
			needs[i].read = true
		}
	}
	// The join counter and its ready continuation are allocated lazily,
	// on the first need that has to wait: acquires whose data is already
	// resident (or write-allocatable) run closure-free, which most of a
	// large run's acquires are. The join's sentinel count of 1 keeps
	// done from firing before every need has been examined.
	var j *acquireJoin
	for _, n := range needs {
		st := &mm.states[n.h.ID]
		r := &st.repl[mem]
		r.pin++
		r.lastUse = mm.eng.nextSeq()
		mm.lruTouch(mem, n.h.ID)
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
		case !n.read:
			// Write-only: allocate space, no fetch of old contents.
			// The state flips before allocate so the eviction walk
			// inside allocate sees a live (non-evictable) entry.
			if r.state == replInvalid {
				r.state = replValid
				mm.allocate(mem, n.h)
				mm.event(trace.MemValid, n.h, mem, st.gen)
				if wallocs != nil {
					*wallocs = append(*wallocs, n.h)
				}
			} else {
				// A fetch is in flight (e.g. prefetch): let it land,
				// the space is already accounted.
				if j == nil {
					j = newAcquireJoin(done)
				}
				j.pending++
				mm.addWaiter(n.h.ID, mem, j.ready)
			}
		default:
			if j == nil {
				j = newAcquireJoin(done)
			}
			j.pending++
			mm.fetch(st, mem, false, j.ready)
		}
	}
	// Return the scratch before the sentinel fires: done() may start
	// another task and re-enter acquire synchronously.
	mm.needsScratch = needs[:0]
	if j == nil {
		done() // everything was resident; no continuation was built
		return
	}
	j.ready() // consume the sentinel
}

// acquireJoin joins the asynchronous staging of one acquire: pending
// counts outstanding fetches plus a sentinel, and done fires when the
// last one lands. ready is the prebuilt continuation handed to fetches
// and waiter queues, so each wait site costs no extra closure.
type acquireJoin struct {
	pending int
	done    func()
	ready   func()
}

func newAcquireJoin(done func()) *acquireJoin {
	j := &acquireJoin{pending: 1, done: done}
	j.ready = func() {
		j.pending--
		if j.pending == 0 {
			j.done()
		}
	}
	return j
}

// release unpins t's data on mem and applies write effects: written
// handles become dirty sole copies on mem.
func (mm *memoryManager) release(t *runtime.Task, mem platform.MemID) {
	for ai, a := range t.Accesses {
		st := &mm.states[a.Handle.ID]
		r := &st.repl[mem]
		first := true
		for _, prev := range t.Accesses[:ai] {
			if prev.Handle.ID == a.Handle.ID {
				first = false
				break
			}
		}
		if first {
			r.pin--
			if r.pin < 0 {
				panic("sim: negative pin count")
			}
			r.lastUse = mm.eng.nextSeq()
			mm.lruTouch(mem, a.Handle.ID)
		}
		if a.Mode.IsWrite() {
			r.state = replValid
			// Dirty means "RAM does not hold this value": meaningful
			// only away from the RAM node (write-backs target RAM).
			r.dirty = mem != platform.MemRAM
			st.gen++ // in-flight fetches now carry stale payloads
			mm.event(trace.MemValid, st.h, mem, st.gen)
			for other := range st.repl {
				if platform.MemID(other) == mem {
					continue
				}
				o := &st.repl[other]
				if o.state == replValid {
					o.state = replInvalid
					o.dirty = false
					o.viaPrefetch = false
					mm.used[other] -= st.h.Bytes
					mm.lruRemove(platform.MemID(other), st.h.ID)
					mm.event(trace.MemFree, st.h, platform.MemID(other), 0)
					mm.noteUsed(platform.MemID(other))
				}
			}
		}
	}
}

// prefetch stages t's read data on mem without pinning.
func (mm *memoryManager) prefetch(t *runtime.Task, mem platform.MemID) {
	for _, a := range t.Accesses {
		if a.Mode == runtime.W {
			continue
		}
		st := &mm.states[a.Handle.ID]
		if st.repl[mem].state == replInvalid {
			mm.fetch(st, mem, true, nil)
		}
	}
}

// fetch brings st's handle to dst. cb (optional) runs when valid.
func (mm *memoryManager) fetch(st *handleState, dst platform.MemID, isPrefetch bool, cb func()) {
	r := &st.repl[dst]
	switch r.state {
	case replValid:
		if cb != nil {
			cb()
		}
		return
	case replFetching:
		if cb != nil {
			mm.addWaiter(st.h.ID, dst, cb)
		}
		return
	}
	// Pick the source: prefer RAM, then any valid replica.
	src := platform.MemID(-1)
	if st.repl[platform.MemRAM].state == replValid {
		src = platform.MemRAM
	} else {
		for i := range st.repl {
			if st.repl[i].state == replValid {
				src = platform.MemID(i)
				break
			}
		}
	}
	if src < 0 {
		// The sole copy is in flight (e.g. an eviction write-back to
		// RAM). Chain onto its arrival, then retry.
		for i := range st.repl {
			if st.repl[i].state == replFetching && platform.MemID(i) != dst {
				mm.addWaiter(st.h.ID, platform.MemID(i), func() {
					mm.fetch(st, dst, isPrefetch, cb)
				})
				return
			}
		}
		panic(fmt.Sprintf("sim: handle %q has no valid or in-flight replica", st.h.Name))
	}
	r.state = replFetching
	r.viaPrefetch = isPrefetch
	if cb != nil {
		mm.addWaiter(st.h.ID, dst, cb)
	}
	mm.allocate(dst, st.h)
	mm.transfer(st, src, dst, isPrefetch, false)
}

// allocate reserves space for h on mem, evicting LRU unpinned replicas
// when over capacity. Allocation never blocks: if nothing is evictable
// the node overflows (counted, reported), which keeps the simulation
// deadlock-free while still surfacing memory pressure.
func (mm *memoryManager) allocate(mem platform.MemID, h *runtime.DataHandle) {
	// Evict before reserving, not after: the node must never transiently
	// exceed capacity without the overshoot being counted as overflow.
	cap := mm.machine.Mems[mem].CapacityBytes
	if cap > 0 {
		for mm.used[mem]+h.Bytes > cap {
			if !mm.evictOne(mem, h.ID) {
				mm.overflow[mem] += mm.used[mem] + h.Bytes - cap
				if mm.probe != nil {
					mm.probe.Counter(mm.ovTrack[mem], mm.eng.now, mm.eng.seq, float64(mm.overflow[mem]))
				}
				break
			}
		}
	}
	mm.used[mem] += h.Bytes
	mm.event(trace.MemAlloc, h, mem, 0)
	mm.lruPush(mem, h.ID)
	mm.noteUsed(mem)
}

// evictOne drops the least-recently-used unpinned valid replica on mem,
// write-backing dirty sole copies to RAM. Returns false when nothing is
// evictable. The walk starts at the LRU head — the minimal lastUse —
// and stops at the first evictable entry, which is the exact victim the
// seed's full min-lastUse scan selected; skipped entries are pinned,
// mid-fetch, protected, or write-back-blocked.
func (mm *memoryManager) evictOne(mem platform.MemID, protect int64) bool {
	id := int64(mm.lruHead[mem])
	for id >= 0 {
		st := &mm.states[id]
		r := &st.repl[mem]
		// A dirty sole copy is unevictable while RAM is replFetching: the
		// in-flight payload may predate the latest write (it would be
		// dropped stale on arrival), and the write-back that would save
		// this value cannot start until that transfer lands. Evicting
		// here would discard the only copy.
		evictable := r.state == replValid && r.pin == 0 && id != protect &&
			!(r.dirty && st.repl[platform.MemRAM].state == replFetching)
		if evictable {
			break
		}
		id = int64(r.lruNext)
	}
	if id < 0 {
		return false
	}
	st := &mm.states[id]
	r := &st.repl[mem]
	if r.viaPrefetch {
		// A prefetched payload evicted before any acquire touched it:
		// the prefetch was wasted bandwidth.
		r.viaPrefetch = false
		if mm.probe != nil {
			mm.prefetchLost++
			mm.probe.Counter("sim.prefetch.wasted", mm.eng.now, mm.eng.seq, float64(mm.prefetchLost))
		}
	}
	if r.dirty {
		// Sole copy: push it back to RAM. The bytes leave this node
		// now; readers chase the RAM replica which is replFetching
		// until the write-back lands.
		ram := &st.repl[platform.MemRAM]
		if ram.state == replValid {
			panic("sim: dirty replica coexists with valid RAM copy")
		}
		if ram.state == replInvalid {
			ram.state = replFetching
			mm.used[platform.MemRAM] += st.h.Bytes
			mm.event(trace.MemAlloc, st.h, platform.MemRAM, 0)
			mm.lruPush(platform.MemRAM, id)
			mm.noteUsed(platform.MemRAM)
			mm.transfer(st, mem, platform.MemRAM, false, true)
		}
	}
	r.state = replInvalid
	r.dirty = false
	mm.used[mem] -= st.h.Bytes
	mm.lruRemove(mem, id)
	mm.event(trace.MemFree, st.h, mem, 0)
	mm.noteUsed(mem)
	if mm.probe != nil {
		mm.evictions[mem]++
		mm.probe.Counter(mm.evictTrack[mem], mm.eng.now, mm.eng.seq, float64(mm.evictions[mem]))
	}
	return true
}

// transfer schedules the movement of st's handle from src to dst on the
// FIFO link and marks dst valid on arrival.
func (mm *memoryManager) transfer(st *handleState, src, dst platform.MemID, isPrefetch, isWriteback bool) {
	link := &mm.links[src][dst]
	now := mm.eng.now
	start := now
	if link.busyUntil > start {
		start = link.busyUntil
	}
	dur := mm.machine.TransferTime(src, dst, st.h.Bytes)
	end := start + dur
	link.busyUntil = end
	// A transfer whose occupancy starts inside a failure window of this
	// link fails: it burns the link time, then drops on arrival and a
	// fresh transfer is issued. Windows are finite, so retries terminate.
	failTransfer := false
	if fi := mm.eng.faults; fi != nil && fi.plan.TransferFails(src, dst, start) {
		failTransfer = true
	}
	if mm.eng.tr != nil {
		mm.eng.tr.AddTransfer(trace.Transfer{
			Handle: st.h.ID, Src: src, Dst: dst, Bytes: st.h.Bytes,
			Start: start, End: end, Prefetch: isPrefetch, Writeback: isWriteback,
			Failed: failTransfer,
		})
	}
	gen := st.gen
	if mm.probe != nil {
		mm.inflight++
		mm.probe.Counter("sim.transfers.inflight", now, mm.eng.seq, float64(mm.inflight))
	}
	mm.eng.at(end, func() {
		if mm.probe != nil {
			mm.inflight--
			mm.probe.Counter("sim.transfers.inflight", mm.eng.now, mm.eng.seq, float64(mm.inflight))
		}
		r := &st.repl[dst]
		if r.state != replFetching {
			return // replica was torn down while in flight
		}
		if failTransfer {
			// The payload was corrupted in flight: drop it and retry the
			// same route. Waiters stay parked on the replica; the space
			// stays accounted (still replFetching).
			mm.eng.faults.stats.TransferFailures++
			mm.transfer(st, src, dst, isPrefetch, isWriteback)
			return
		}
		if st.gen != gen {
			// A write completed elsewhere during the flight: the
			// payload is stale. Drop it and re-fetch the fresh value
			// for anyone still waiting.
			r.state = replInvalid
			mm.used[dst] -= st.h.Bytes
			mm.lruRemove(dst, st.h.ID)
			mm.event(trace.MemFree, st.h, dst, 0)
			mm.noteUsed(dst)
			if r.viaPrefetch {
				r.viaPrefetch = false
				if mm.probe != nil {
					mm.prefetchLost++
					mm.probe.Counter("sim.prefetch.wasted", mm.eng.now, mm.eng.seq, float64(mm.prefetchLost))
				}
			}
			for _, w := range mm.takeWaiters(st.h.ID, dst) {
				mm.fetch(st, dst, false, w)
			}
			return
		}
		r.state = replValid
		r.lastUse = mm.eng.nextSeq()
		mm.lruTouch(dst, st.h.ID)
		mm.event(trace.MemValid, st.h, dst, gen)
		if dst == platform.MemRAM {
			// RAM now holds the current value: no replica is the sole
			// (dirty) copy anymore.
			for i := range st.repl {
				st.repl[i].dirty = false
			}
		}
		for _, w := range mm.takeWaiters(st.h.ID, dst) {
			w()
		}
	})
}

// abortAcquire undoes a fault-aborted acquire on mem: unpin every
// distinct handle of t, and free the replicas the acquire itself
// write-allocated (they hold uninitialized space, never a committed
// value — leaving them valid would let a later reader see garbage).
// In-flight fetches started by the acquire are left to land: they
// become ordinary unpinned replicas, like a prefetch would.
func (mm *memoryManager) abortAcquire(t *runtime.Task, mem platform.MemID, wallocs []*runtime.DataHandle) {
	for ai, a := range t.Accesses {
		first := true
		for _, prev := range t.Accesses[:ai] {
			if prev.Handle.ID == a.Handle.ID {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		r := &mm.states[a.Handle.ID].repl[mem]
		r.pin--
		if r.pin < 0 {
			panic("sim: negative pin count in fault abort")
		}
	}
	for _, h := range wallocs {
		st := &mm.states[h.ID]
		r := &st.repl[mem]
		if r.state == replValid && r.pin == 0 {
			r.state = replInvalid
			r.dirty = false
			mm.used[mem] -= h.Bytes
			mm.lruRemove(mem, h.ID)
			mm.event(trace.MemFree, h, mem, 0)
			mm.noteUsed(mem)
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
	for id := mm.lruHead[mem]; id >= 0; id = mm.states[id].repl[mem].lruNext {
		list = append(list, int64(id))
	}
	for _, id := range list {
		st := &mm.states[id]
		r := &st.repl[mem]
		if r.state != replValid || r.pin > 0 {
			// Fetching: inbound DMA, let it drain. Pinned: unreachable —
			// every attempt on this node was aborted (and unpinned)
			// before the node is lost.
			continue
		}
		other := false
		for i := range st.repl {
			if platform.MemID(i) != mem && st.repl[i].state == replValid {
				other = true
				break
			}
		}
		if other {
			if r.dirty && st.repl[platform.MemRAM].state != replValid {
				// The surviving copies were fetched from this one and
				// are clean. One of them must inherit the write-back
				// responsibility, or the value silently vanishes the
				// moment the last clean copy is evicted.
				for i := range st.repl {
					if platform.MemID(i) != mem && platform.MemID(i) != platform.MemRAM &&
						st.repl[i].state == replValid {
						st.repl[i].dirty = true
						break
					}
				}
			}
			mm.dropReplica(st, mem)
			lost++
			continue
		}
		// Sole copy: it must reach RAM before the replica can drop.
		ram := &st.repl[platform.MemRAM]
		switch ram.state {
		case replFetching:
			// A transfer towards RAM is already in flight, possibly with
			// a stale payload. Defer the drop until RAM resolves to the
			// current value (the stale-drop path re-fetches from this
			// still-valid replica, then our waiter runs).
			mm.addWaiter(st.h.ID, platform.MemRAM, func() { mm.dropReplica(st, mem) })
			lost++
		case replInvalid:
			ram.state = replFetching
			mm.used[platform.MemRAM] += st.h.Bytes
			mm.event(trace.MemAlloc, st.h, platform.MemRAM, 0)
			mm.lruPush(platform.MemRAM, id)
			mm.noteUsed(platform.MemRAM)
			mm.transfer(st, mem, platform.MemRAM, false, true)
			// The transfer models a snapshot: the source may drop now,
			// and readers chase the RAM replica.
			mm.dropReplica(st, mem)
			lost++
		}
	}
	return lost
}

// dropReplica invalidates one valid unpinned replica and releases its
// accounting. No-op if the replica moved on in the meantime (deferred
// drops race with normal invalidation).
func (mm *memoryManager) dropReplica(st *handleState, mem platform.MemID) {
	r := &st.repl[mem]
	if r.state != replValid || r.pin > 0 {
		return
	}
	if r.viaPrefetch {
		r.viaPrefetch = false
		if mm.probe != nil {
			mm.prefetchLost++
			mm.probe.Counter("sim.prefetch.wasted", mm.eng.now, mm.eng.seq, float64(mm.prefetchLost))
		}
	}
	r.state = replInvalid
	r.dirty = false
	mm.used[mem] -= st.h.Bytes
	mm.lruRemove(mem, st.h.ID)
	mm.event(trace.MemFree, st.h, mem, 0)
	mm.noteUsed(mem)
}

// residentBytes returns the bytes counted on mem (for tests/reports).
func (mm *memoryManager) residentBytes(mem platform.MemID) int64 { return mm.used[mem] }
