// Package randdag generates layered random task graphs in the spirit of
// the STG benchmark suite (Tobita & Kasahara): configurable width,
// depth, edge density, architecture-affinity mix and granularity
// spread. The paper's applications cover three structured DAG families;
// random graphs complement them as a robustness check — a scheduler
// that only wins on structured DAGs has overfit.
package randdag

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"slices"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Params configures one random DAG.
type Params struct {
	// Layers and Width shape the graph: Width tasks per layer.
	Layers, Width int
	// EdgeProb is the probability of a dependency from a task to each
	// task of the next layer (via shared data handles). Defaults 0.25.
	EdgeProb float64
	// GPUShare is the fraction of tasks with a (strongly accelerated)
	// GPU implementation; the rest are CPU-only. 0 means the default
	// 0.5; a share < 0 means none.
	GPUShare float64
	// GranularitySpread is the ratio between the largest and smallest
	// task costs (log-uniform). Defaults 10.
	GranularitySpread float64
	// CommuteShare is the fraction of tasks that additionally update a
	// shared accumulator handle in Commute mode (TBFMM-style force
	// reductions), exercising the engines' execution-time mutual
	// exclusion. Default 0.
	CommuteShare float64
	// TypedFraction restricts a fraction of the accelerated tasks to the
	// GPU class alone (TypedDAG-style affinity constraints): a typed task
	// loses its CPU implementation, so only GPU workers are capable and
	// every scheduler must honor the mask. Default 0 — and like
	// CommuteShare, 0 draws no extra randoms, leaving existing seeds'
	// graphs untouched.
	TypedFraction float64
	// MeanCost is the average CPU execution time in seconds. Defaults
	// 5 ms.
	MeanCost float64
	Machine  *platform.Machine
	Seed     int64
}

func (p Params) defaults() Params {
	if p.EdgeProb <= 0 {
		p.EdgeProb = 0.25
	}
	if p.GPUShare < 0 {
		p.GPUShare = 0
	} else if p.GPUShare == 0 {
		p.GPUShare = 0.5
	}
	if p.GranularitySpread < 1 {
		p.GranularitySpread = 10
	}
	if p.MeanCost <= 0 {
		p.MeanCost = 5e-3
	}
	return p
}

// Build generates the graph. Deterministic per seed.
//
// The random stream is drawn on a second goroutine (drawer.run), a
// bounded ring of chunks ahead of this one, which creates the handles
// and stages the tasks from the drawn records, and admits each chunk's
// complete layers while the drawer fills the next: dependency inference
// runs in the time this goroutine would spend waiting. One goroutine
// consumes one stream in the order of the former single loop, and the
// tasks are staged and admitted in ID order, so the graph is the same
// as if one goroutine did everything.
func Build(p Params) *runtime.Graph {
	if p.Machine == nil {
		panic("randdag: nil machine")
	}
	if p.Layers < 1 || p.Width < 1 {
		panic(fmt.Sprintf("randdag: %d layers x %d width", p.Layers, p.Width))
	}
	p = p.defaults()
	d := startDrawer(p)
	defer d.stop()
	n := p.Layers * p.Width
	nh := n
	if p.CommuteShare > 0 {
		nh++
	}
	g := runtime.NewGraphWithCapacity(n, nh)
	b := g.NewBatch(n)
	// Every edge is one read of a producer's output; the commute accesses
	// add none, since nothing else writes the accumulator. Each task also
	// writes its output, and a commuting one updates the accumulator.
	reads := allowance((p.Layers-1)*p.Width*p.Width, p.EdgeProb)
	uses := n + reads
	if p.CommuteShare > 0 {
		uses += allowance(n, min(p.CommuteShare, 1))
	}
	b.Reserve(uses, reads, reads)

	// Commuting tasks all update one shared accumulator; created lazily
	// so CommuteShare == 0 leaves the random stream of existing seeds
	// untouched.
	var accum *runtime.DataHandle
	if p.CommuteShare > 0 {
		accum = g.NewData("acc", 4096)
	}

	// One output handle per task (task i of layer l owns outs[l*Width+i]);
	// an edge is expressed as the consumer reading the producer's output.
	for k, l, i := 0, 0, 0; k < n; {
		c := d.next()
		for _, size := range c.sizes {
			b.NewData(size, "d%d.%d", l, i)
			k++
			if i++; i == p.Width {
				l, i = l+1, 0
			}
		}
		d.recycle(c)
	}
	outs := g.Handles[nh-n:]

	// The specs are staged in one batch, their cost rows carved from the
	// batch's slab and their accesses copied into the graph's use table:
	// for million-task graphs this is the difference between a dozen
	// allocations per task and a handful of slabs. acc is the one scratch
	// every spec's accesses are assembled in.
	acc := make([]runtime.Access, 0, 64)
	spreadLog := math.Log(p.GranularitySpread)
	archs := len(p.Machine.Archs)
	for k, i := 0, 0; k < n; {
		c := d.next()
		edges := c.edges
		for _, t := range c.tasks {
			// Log-uniform cost in [mean/sqrt(spread), mean*sqrt(spread)].
			cpu := p.MeanCost * math.Exp((t.cost-0.5)*spreadLog)
			cost := b.Cost(archs)
			cost[platform.ArchCPU] = cpu
			kind := "host"
			if t.kind != host {
				// 10-40x accelerated, plus a launch floor.
				cost[platform.ArchGPU] = cpu/(10+30*t.speedup) + 1e-5
				kind = "accel"
				if t.kind == typed {
					cost[platform.ArchCPU] = 0 // GPU-only: CPU not capable
					kind = "typed"
				}
			}
			acc = append(acc[:0], runtime.Access{Handle: outs[k], Mode: runtime.W})
			if k >= p.Width {
				prev := outs[k-i-p.Width : k-i]
				for _, j := range edges[:t.edges] {
					acc = append(acc, runtime.Access{Handle: prev[j], Mode: runtime.R})
				}
				edges = edges[t.edges:]
			}
			if t.commute {
				acc = append(acc, runtime.Access{Handle: accum, Mode: runtime.Commute})
			}
			b.Add(runtime.TaskSpec{
				Kind:      kind,
				Footprint: uint64(10 * math.Round(cpu*1e4)), // bucketed by size
				Flops:     cpu * 1e9,
				Cost:      cost,
				Accesses:  acc,
				Priority:  int(t.priority),
			})
			k++
			if i++; i == p.Width {
				i = 0
			}
		}
		d.recycle(c)
		// A layer's handles are read by the next layer alone: once a
		// layer is staged, the reads of the one above are all known.
		b.Admit(k - i)
	}
	b.Submit()
	return g
}

// allowance bounds the number of successes in n trials of probability q:
// the mean plus six standard deviations, which a draw exceeds about once
// in a billion builds.
func allowance(n int, q float64) int {
	mean := float64(n) * q
	return int(mean+6*math.Sqrt(mean*(1-q))) + 1
}

// The ring: ringLen chunks, each holding up to chunkLen handle sizes or
// task records and chunkEdges edge picks, circulate between the drawer
// and Build. The drawer is never more than ringLen chunks ahead, so the
// ring's memory does not grow with the graph.
const (
	chunkLen   = 1024
	chunkEdges = 4 * chunkLen
	ringLen    = 4
)

// chunk is one ring slot. Its buffers hold no pointers, so the
// collector never scans them. A chunk carries either handle sizes or task records; each
// record's edge picks are the next record.edges entries of edges.
type chunk struct {
	sizes []int64
	tasks []record
	edges []int32 // producer indices within the previous layer
}

// record holds the draws of one task. cost and speedup are the raw
// Float64 draws behind its CPU cost and GPU speed-up; kind says which
// of the GPU and typed coins came up.
type record struct {
	cost, speedup float64
	edges         int32
	priority      int32
	kind          uint8
	commute       bool
}

// record.kind values.
const (
	host uint8 = iota
	accel
	typed
)

// drawer draws the random stream of one Build on its own goroutine.
type drawer struct {
	full, free chan *chunk
	quit, done chan struct{}
}

func startDrawer(p Params) *drawer {
	// Each channel has room for the whole ring, so no send blocks.
	d := &drawer{
		full: make(chan *chunk, ringLen),
		free: make(chan *chunk, ringLen),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	chunks := make([]chunk, ringLen)
	sizes := make([]int64, ringLen*chunkLen)
	tasks := make([]record, ringLen*chunkLen)
	edges := make([]int32, ringLen*chunkEdges)
	for i := range chunks {
		c := &chunks[i]
		c.sizes = sizes[i*chunkLen : i*chunkLen : (i+1)*chunkLen]
		c.tasks = tasks[i*chunkLen : i*chunkLen : (i+1)*chunkLen]
		c.edges = edges[i*chunkEdges : i*chunkEdges : (i+1)*chunkEdges]
		d.free <- c
	}
	go d.run(p)
	return d
}

// next returns the next filled chunk, in draw order.
func (d *drawer) next() *chunk { return <-d.full }

// recycle hands a consumed chunk back to the drawer.
func (d *drawer) recycle(c *chunk) { d.free <- c }

// stop makes the drawer return, whether or not it has drawn everything,
// and waits until it has.
func (d *drawer) stop() {
	close(d.quit)
	<-d.done
}

// take returns an emptied free chunk. Once stop was called it ends
// the drawer's goroutine instead.
func (d *drawer) take() *chunk {
	select {
	case c := <-d.free:
		c.sizes, c.tasks, c.edges = c.sizes[:0], c.tasks[:0], c.edges[:0]
		return c
	case <-d.quit:
		goruntime.Goexit()
		return nil
	}
}

// run draws the whole stream: every handle size, then every task's
// cost, GPU and typed draws, edge picks, commute flag and priority. The
// sends never block: the channels hold as many chunks as exist.
func (d *drawer) run(p Params) {
	defer close(d.done)
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Layers * p.Width
	c := d.take()
	for k := 0; k < n; k++ {
		if len(c.sizes) == chunkLen {
			d.full <- c
			c = d.take()
		}
		c.sizes = append(c.sizes, int64(rng.Intn(1<<20)+4096))
	}
	d.full <- c

	width, edgeProb := p.Width, p.EdgeProb
	gpuShare, typedFraction, commuteShare := p.GPUShare, p.TypedFraction, p.CommuteShare
	hasGPU := int(platform.ArchGPU) < len(p.Machine.Archs)
	c = d.take()
	for l := 0; l < p.Layers; l++ {
		for i := 0; i < width; i++ {
			// A chunk is full when one more task's picks might not fit;
			// only a layer wider than chunkEdges grows a chunk's buffer.
			if len(c.tasks) == chunkLen || len(c.tasks) > 0 && len(c.edges)+width > cap(c.edges) {
				d.full <- c
				c = d.take()
			}
			t := record{cost: rng.Float64()}
			if hasGPU && rng.Float64() < gpuShare {
				t.speedup, t.kind = rng.Float64(), accel
				if typedFraction > 0 && rng.Float64() < typedFraction {
					t.kind = typed
				}
			}
			if l > 0 {
				// Every candidate is written and only a pick advances k,
				// so the loop does not branch on the coin, which no branch
				// predictor can guess.
				c.edges = slices.Grow(c.edges, width)
				picks := c.edges[len(c.edges) : len(c.edges)+width]
				k := 0
				for j := range picks {
					picks[k] = int32(j)
					if rng.Float64() < edgeProb {
						k++
					}
				}
				c.edges = c.edges[:len(c.edges)+k]
				t.edges = int32(k)
			}
			t.commute = commuteShare > 0 && rng.Float64() < commuteShare
			t.priority = int32(rng.Intn(100))
			c.tasks = append(c.tasks, t)
		}
	}
	d.full <- c
}
