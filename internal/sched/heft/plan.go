// Package heft implements static list scheduling for the STF runtime:
// a full task→worker assignment and per-worker execution order computed
// from the performance model *before* execution, in contrast to every
// other policy in the registry, which decides online. Two ranking
// heuristics are provided — classic HEFT (Topcuoglu, Hariri & Wu 2002:
// upward rank + insertion-based earliest-finish-time selection) and an
// optimistic-finish-time variant in the spirit of PEFT (Arabnejad &
// Barbosa 2014: an optimistic cost table added to the EFT at selection
// time) — plus the replay machinery that executes a plan through the
// normal Push/Pop scheduler contract: pinned replay (the pure static
// baseline) and hybrid repair (replay with a dynamic fallback policy
// that absorbs deviations). See DESIGN.md §15.
package heft

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Algorithm selects the ranking heuristic of a plan.
type Algorithm int

const (
	// RankUpward is classic HEFT: tasks prioritized by upward rank
	// (mean execution + mean communication along the longest path to an
	// exit task), workers chosen by insertion-based earliest finish
	// time.
	RankUpward Algorithm = iota
	// RankOptimistic is the optimistic-finish-time variant: tasks
	// prioritized by the mean of a PEFT-style optimistic cost table
	// (the best possible downstream completion assuming every
	// descendant lands on its ideal worker), workers chosen by
	// minimizing EFT plus that optimistic tail.
	RankOptimistic
)

// String returns the policy-name spelling of the algorithm.
func (a Algorithm) String() string {
	if a == RankOptimistic {
		return "heft-oft"
	}
	return "heft"
}

// Plan is a complete static schedule: where every task runs, in which
// order per worker, and the model-predicted timeline those choices were
// derived from. Slices are indexed by task ID (submission order).
type Plan struct {
	Alg Algorithm
	// Assignment[t] is the worker task t is pinned to.
	Assignment []platform.UnitID
	// Order[w] lists the task IDs planned on worker w in planned start
	// order; Slot[t] is t's index within Order[Assignment[t]].
	Order [][]int64
	Slot  []int
	// Start and Finish are the planned timeline under the performance
	// model; Makespan is the latest planned finish. Replay under noise,
	// slowdowns and faults deviates from these — the hybrid policy's
	// slack detection and the oracle's StaticCheck both measure drift
	// against them.
	Start, Finish []float64
	Makespan      float64
}

// rankHeap is a max-heap of ready task indices ordered by
// (rank descending, ID ascending) — the list-scheduling ready queue.
type rankHeap struct {
	ids  []int
	rank []float64
}

func (h *rankHeap) len() int { return len(h.ids) }

func (h *rankHeap) before(a, b int) bool {
	if h.rank[a] != h.rank[b] {
		return h.rank[a] > h.rank[b]
	}
	return a < b
}

func (h *rankHeap) push(i int) {
	h.ids = append(h.ids, i)
	for c := len(h.ids) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.before(h.ids[c], h.ids[p]) {
			break
		}
		h.ids[c], h.ids[p] = h.ids[p], h.ids[c]
		c = p
	}
}

func (h *rankHeap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h.before(h.ids[c+1], h.ids[c]) {
			c++
		}
		if !h.before(h.ids[c], h.ids[p]) {
			break
		}
		h.ids[p], h.ids[c] = h.ids[c], h.ids[p]
		p = c
	}
	return top
}

// ival is one busy interval of a worker's partial schedule, kept sorted
// by start (intervals never overlap, so ends are sorted too).
type ival struct{ start, end float64 }

// insertionStart returns the earliest instant a task of length dur can
// start on a worker with busy intervals ivs, no earlier than ready
// (HEFT's insertion-based policy: gaps between already-placed tasks are
// eligible).
func insertionStart(ivs []ival, ready, dur float64) float64 {
	est := ready
	// Intervals ending at or before ready cannot constrain the start.
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].end > ready })
	for ; i < len(ivs); i++ {
		if ivs[i].start >= est+dur {
			break // the task fits in the gap before this interval
		}
		if ivs[i].end > est {
			est = ivs[i].end
		}
	}
	return est
}

// insertIval adds [start, end] to ivs keeping the start order.
func insertIval(ivs []ival, start, end float64) []ival {
	pos := sort.Search(len(ivs), func(i int) bool { return ivs[i].start > start })
	ivs = append(ivs, ival{})
	copy(ivs[pos+1:], ivs[pos:])
	ivs[pos] = ival{start, end}
	return ivs
}

// edgeBytes returns the bytes flowing across the dependency p → t of g:
// the summed sizes of handles p writes and t reads. Pure serialization
// edges (no shared data read downstream) carry zero bytes.
func edgeBytes(g *runtime.Graph, p, t *runtime.Task) int64 {
	var sum int64
	for _, pu := range p.Uses() {
		if !pu.Mode.IsWrite() {
			continue
		}
		for _, tu := range t.Uses() {
			if tu.Mode.IsRead() && tu.Handle == pu.Handle {
				sum += g.Handles[pu.Handle].Bytes
				break
			}
		}
	}
	return sum
}

// BuildPlan computes a static schedule for env.Graph on env.Machine
// using the estimates of env.Model. It is deterministic: no randomness,
// ties broken by lower ID. An error is returned when some task has no
// capable worker.
func BuildPlan(env *runtime.Env, alg Algorithm) (*Plan, error) {
	g, m := env.Graph, env.Machine
	n := len(g.Tasks)
	nu := len(m.Units)
	na := len(m.Archs)

	// δ(t, a) from the model, cached per (task, arch).
	delta := make([]float64, n*na)
	for i, t := range g.Tasks {
		for a := 0; a < na; a++ {
			delta[i*na+a] = env.Delta(t, platform.ArchID(a))
		}
	}

	// Mean execution cost over capable units (HEFT's w̄).
	wbar := make([]float64, n)
	for i, t := range g.Tasks {
		var sum float64
		cnt := 0
		for u := range m.Units {
			d := delta[i*na+int(m.Units[u].Arch)]
			if math.IsInf(d, 1) {
				continue
			}
			sum += d * m.Units[u].SpeedFactor
			cnt++
		}
		if cnt == 0 {
			return nil, fmt.Errorf("heft: task %d (%s) has no capable worker", t.ID, t.Kind())
		}
		wbar[i] = sum / float64(cnt)
	}

	// Mean communication cost of b bytes over distinct memory-node
	// pairs (HEFT's c̄ uses the average link).
	nm := len(m.Mems)
	avgXfer := func(b int64) float64 {
		if b == 0 || nm < 2 {
			return 0
		}
		var sum float64
		for src := 0; src < nm; src++ {
			for dst := 0; dst < nm; dst++ {
				if src != dst {
					sum += m.TransferTime(platform.MemID(src), platform.MemID(dst), b)
				}
			}
		}
		return sum / float64(nm*(nm-1))
	}

	// Priority ranks. Task IDs are topological (STF submission order),
	// so a single descending sweep visits successors first.
	rank := make([]float64, n)
	var oct []float64
	switch alg {
	case RankOptimistic:
		// Optimistic cost table: OCT[t][u] is the best possible time
		// from t's completion on u to the exit, assuming each successor
		// lands on its ideal worker.
		oct = make([]float64, n*nu)
		for i := n - 1; i >= 0; i-- {
			t := g.Tasks[i]
			for u := 0; u < nu; u++ {
				var worst float64
				for _, id := range t.Succs() {
					s := g.Tasks[id]
					comm := avgXfer(edgeBytes(g, t, s))
					best := math.Inf(1)
					for u2 := 0; u2 < nu; u2++ {
						d := delta[s.ID*int64(na)+int64(m.Units[u2].Arch)]
						if math.IsInf(d, 1) {
							continue
						}
						v := oct[s.ID*int64(nu)+int64(u2)] + d*m.Units[u2].SpeedFactor
						if m.Units[u2].Mem != m.Units[u].Mem {
							v += comm
						}
						if v < best {
							best = v
						}
					}
					if best > worst {
						worst = best
					}
				}
				oct[int64(i)*int64(nu)+int64(u)] = worst
			}
			var sum float64
			for u := 0; u < nu; u++ {
				sum += oct[int64(i)*int64(nu)+int64(u)]
			}
			rank[i] = sum / float64(nu)
		}
	default:
		// Classic upward rank.
		for i := n - 1; i >= 0; i-- {
			t := g.Tasks[i]
			var tail float64
			for _, s := range t.Succs() {
				v := avgXfer(edgeBytes(g, t, g.Tasks[s])) + rank[s]
				if v > tail {
					tail = v
				}
			}
			rank[i] = wbar[i] + tail
		}
	}

	// Insertion-based EFT selection in rank order among *ready* tasks
	// (every predecessor already placed). Classic upward rank is
	// monotone along edges, so this pops in plain descending-rank order;
	// the OCT rank is not — a globally-sorted sweep could place a task
	// before its predecessor and read a zero finish time for it.
	ready := &rankHeap{rank: rank}
	npred := make([]int, n)
	for i, t := range g.Tasks {
		npred[i] = t.NumPreds()
		if npred[i] == 0 {
			ready.push(i)
		}
	}
	p := &Plan{
		Alg:        alg,
		Assignment: make([]platform.UnitID, n),
		Slot:       make([]int, n),
		Start:      make([]float64, n),
		Finish:     make([]float64, n),
		Order:      make([][]int64, nu),
	}
	busy := make([][]ival, nu)
	for ready.len() > 0 {
		i := ready.pop()
		t := g.Tasks[i]
		bestU := -1
		var bestStart, bestFinish, bestMetric float64
		bestMetric = math.Inf(1)
		for u := 0; u < nu; u++ {
			d := delta[int64(i)*int64(na)+int64(m.Units[u].Arch)]
			if math.IsInf(d, 1) {
				continue
			}
			dur := d * m.Units[u].SpeedFactor
			var ready float64
			for _, id := range g.Preds(t) {
				pr := g.Tasks[id]
				r := p.Finish[pr.ID]
				if m.Units[p.Assignment[pr.ID]].Mem != m.Units[u].Mem {
					if b := edgeBytes(g, pr, t); b > 0 {
						r += m.TransferTime(m.Units[p.Assignment[pr.ID]].Mem, m.Units[u].Mem, b)
					}
				}
				if r > ready {
					ready = r
				}
			}
			st := insertionStart(busy[u], ready, dur)
			ft := st + dur
			metric := ft
			if alg == RankOptimistic {
				metric = ft + oct[int64(i)*int64(nu)+int64(u)]
			}
			if metric < bestMetric {
				bestU, bestStart, bestFinish, bestMetric = u, st, ft, metric
			}
		}
		if bestU < 0 {
			return nil, fmt.Errorf("heft: task %d (%s) has no capable worker", t.ID, t.Kind())
		}
		p.Assignment[i] = platform.UnitID(bestU)
		p.Start[i], p.Finish[i] = bestStart, bestFinish
		busy[bestU] = insertIval(busy[bestU], bestStart, bestFinish)
		if bestFinish > p.Makespan {
			p.Makespan = bestFinish
		}
		for _, s := range t.Succs() {
			npred[s]--
			if npred[s] == 0 {
				ready.push(int(s))
			}
		}
	}

	// Per-worker order by planned start (insertion may place a task
	// into a gap before previously ranked ones).
	for i := range g.Tasks {
		w := p.Assignment[i]
		p.Order[w] = append(p.Order[w], int64(i))
	}
	for w := range p.Order {
		ord := p.Order[w]
		sort.Slice(ord, func(a, b int) bool {
			if p.Start[ord[a]] != p.Start[ord[b]] {
				return p.Start[ord[a]] < p.Start[ord[b]]
			}
			return ord[a] < ord[b]
		})
		for slot, id := range ord {
			p.Slot[id] = slot
		}
	}
	return p, nil
}

// CriticalWorker returns the worker owning the plan's critical path:
// the one assigned the latest-finishing task (lowest task ID on ties).
// Killing it mid-run strands the pure-static frontier.
func (p *Plan) CriticalWorker() platform.UnitID {
	best := int64(-1)
	for i := range p.Finish {
		if best < 0 || p.Finish[i] > p.Finish[best] {
			best = int64(i)
		}
	}
	if best < 0 {
		return 0
	}
	return p.Assignment[best]
}

// Canonical renders the plan in a deterministic text form, the static
// analogue of trace.Canonical: golden tests digest it to pin plan
// construction byte-for-byte.
func (p *Plan) Canonical() []byte {
	var b []byte
	b = append(b, "plan alg="...)
	b = append(b, p.Alg.String()...)
	b = append(b, " makespan="...)
	b = strconv.AppendFloat(b, p.Makespan, 'g', -1, 64)
	b = append(b, '\n')
	for i := range p.Assignment {
		b = append(b, 't')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, " w"...)
		b = strconv.AppendInt(b, int64(p.Assignment[i]), 10)
		b = append(b, " slot"...)
		b = strconv.AppendInt(b, int64(p.Slot[i]), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, p.Start[i], 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, p.Finish[i], 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}
