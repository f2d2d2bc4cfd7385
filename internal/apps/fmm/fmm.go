// Package fmm generates the task graph of a task-based Fast Multipole
// Method, standing in for TBFMM in the paper's Section VI-B. TBFMM is
// built on a *group tree* (Bramas' blocked octree): cells and leaves are
// packed in Morton order into groups of configurable size, and each task
// operates on whole groups — that is what gives the application its
// coarse, GPU-amenable tasks and few large data handles.
//
// The generated DAG has the properties the paper attributes its FMM
// results to: it is very disconnected (the critical path with infinite
// resources is tiny compared to the total work), tasks have contrasted
// architecture affinities (P2P strongly GPU-favourable, M2L and the
// tree operators CPU-only, as in TBFMM's CUDA configuration), and task costs become irregular under
// non-uniform particle distributions.
package fmm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Params configures one FMM task graph.
type Params struct {
	// Particles is the total particle count (paper: 10^6).
	Particles int
	// Height is the octree height: leaves live at level Height-1
	// (paper: 6).
	Height int
	// GroupSize is the number of cells per group of the group tree
	// (TBFMM's blocking factor). Defaults to 64.
	GroupSize int
	// Clustered switches from a uniform particle distribution to a
	// multi-cluster one, producing irregular per-leaf populations.
	Clustered bool
	// MultipoleOrder is the expansion order k (defaults to 8).
	MultipoleOrder int
	// UseCommute marks the particle-output updates (P2P, L2P) with the
	// Commute access mode, as TBFMM does with STARPU_COMMUTE: the two
	// accumulations into each leaf group's output may run in either
	// order, serialized only at execution time.
	UseCommute bool
	Machine    *platform.Machine
	Seed       int64
}

func (p Params) order() int {
	if p.MultipoleOrder <= 0 {
		return 8
	}
	return p.MultipoleOrder
}

func (p Params) groupSize() int {
	if p.GroupSize <= 0 {
		return 64
	}
	return p.GroupSize
}

// cellKey packs (level, ix, iy, iz) for the sparse octree maps.
type cellKey struct {
	level      int
	ix, iy, iz int
}

func (k cellKey) parent() cellKey {
	return cellKey{k.level - 1, k.ix / 2, k.iy / 2, k.iz / 2}
}

// morton interleaves the cell coordinates into a Morton (Z-order) code,
// the order TBFMM packs cells into groups.
func (k cellKey) morton() uint64 {
	var code uint64
	for b := 0; b < 21; b++ {
		code |= (uint64(k.ix>>b) & 1) << (3 * b)
		code |= (uint64(k.iy>>b) & 1) << (3*b + 1)
		code |= (uint64(k.iz>>b) & 1) << (3*b + 2)
	}
	return code
}

// Tree is the sparse octree with per-leaf particle counts.
type Tree struct {
	Height int
	// Leaves maps leaf cells to their particle count.
	Leaves map[cellKey]int
	// Cells[level] is the set of non-empty cells per level.
	Cells []map[cellKey]bool
}

// BuildTree distributes the particles and builds the pruned octree.
func BuildTree(p Params) *Tree {
	rng := rand.New(rand.NewSource(p.Seed))
	side := 1 << (p.Height - 1)
	leaves := make(map[cellKey]int)

	sample := func() (float64, float64, float64) {
		return rng.Float64(), rng.Float64(), rng.Float64()
	}
	if p.Clustered {
		// Gaussian blobs over a uniform background: leaf populations
		// spread over an order of magnitude or more, the "diverse
		// particle distributions" of the paper's FMM motivation,
		// without collapsing the tree into a handful of cells.
		type blob struct{ cx, cy, cz, sigma float64 }
		nb := 32
		blobs := make([]blob, nb)
		for i := range blobs {
			blobs[i] = blob{
				cx: rng.Float64(), cy: rng.Float64(), cz: rng.Float64(),
				sigma: 0.05 + rng.Float64()*0.12,
			}
		}
		sample = func() (float64, float64, float64) {
			if rng.Float64() < 0.25 {
				return rng.Float64(), rng.Float64(), rng.Float64()
			}
			b := blobs[rng.Intn(nb)]
			clamp := func(v float64) float64 {
				return math.Min(0.999999, math.Max(0, v))
			}
			return clamp(b.cx + rng.NormFloat64()*b.sigma),
				clamp(b.cy + rng.NormFloat64()*b.sigma),
				clamp(b.cz + rng.NormFloat64()*b.sigma)
		}
	}
	for i := 0; i < p.Particles; i++ {
		x, y, z := sample()
		k := cellKey{
			level: p.Height - 1,
			ix:    int(x * float64(side)),
			iy:    int(y * float64(side)),
			iz:    int(z * float64(side)),
		}
		leaves[k]++
	}

	t := &Tree{Height: p.Height, Leaves: leaves}
	t.Cells = make([]map[cellKey]bool, p.Height)
	for l := range t.Cells {
		t.Cells[l] = make(map[cellKey]bool)
	}
	for k := range leaves {
		c := k
		for c.level >= 0 {
			t.Cells[c.level][c] = true
			if c.level == 0 {
				break
			}
			c = c.parent()
		}
	}
	return t
}

// neighbours lists the non-empty cells adjacent to k at the same level
// (excluding k itself).
func (t *Tree) neighbours(k cellKey) []cellKey {
	var out []cellKey
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				n := cellKey{k.level, k.ix + dx, k.iy + dy, k.iz + dz}
				if t.Cells[k.level][n] {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// interactionList lists the well-separated same-level cells in the
// parent neighbourhood: children of the parent's neighbours that are not
// adjacent to k.
func (t *Tree) interactionList(k cellKey) []cellKey {
	if k.level < 2 {
		return nil
	}
	var out []cellKey
	par := k.parent()
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				pn := cellKey{par.level, par.ix + dx, par.iy + dy, par.iz + dz}
				for cx := 0; cx < 2; cx++ {
					for cy := 0; cy < 2; cy++ {
						for cz := 0; cz < 2; cz++ {
							c := cellKey{k.level, pn.ix*2 + cx, pn.iy*2 + cy, pn.iz*2 + cz}
							if !t.Cells[k.level][c] || c == k {
								continue
							}
							if abs(c.ix-k.ix) <= 1 && abs(c.iy-k.iy) <= 1 && abs(c.iz-k.iz) <= 1 {
								continue // adjacent: handled by P2P / finer levels
							}
							out = append(out, c)
						}
					}
				}
			}
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// grouping is the group tree: per level, cells in Morton order packed
// into groups, with a cell -> group index map.
type grouping struct {
	groups [][][]cellKey     // [level][group] -> member cells
	index  []map[cellKey]int // [level][cell] -> group
}

func buildGrouping(t *Tree, groupSize int) *grouping {
	gr := &grouping{
		groups: make([][][]cellKey, t.Height),
		index:  make([]map[cellKey]int, t.Height),
	}
	for l := 0; l < t.Height; l++ {
		cells := make([]cellKey, 0, len(t.Cells[l]))
		for c := range t.Cells[l] {
			cells = append(cells, c)
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].morton() < cells[j].morton() })
		gr.index[l] = make(map[cellKey]int, len(cells))
		for i, c := range cells {
			g := i / groupSize
			if g == len(gr.groups[l]) {
				gr.groups[l] = append(gr.groups[l], nil)
			}
			gr.groups[l][g] = append(gr.groups[l][g], c)
			gr.index[l][c] = g
		}
	}
	return gr
}

// Per-operator efficiencies (fraction of architecture peak usable).
// Calibrated to task-based FMM on heterogeneous nodes (Agullo et al.,
// CCPE 2016; TBFMM): the CUDA offload covers the P2P direct kernel —
// the regular, compute-bound operator, ≈ 30-60x one CPU core on a
// V100-class device. M2L's scattered small-matrix accesses make it
// unprofitable on the GPU, so like the tree operators it is CPU-only,
// exactly TBFMM's GPU configuration.
const (
	p2pCPUEff   = 0.50
	p2pGPUEff   = 0.07
	m2lCPUEff   = 0.55
	treeOpEff   = 0.40
	gpuLaunch   = 1.2e-5 // per-task launch/staging overhead on GPU
	flopPerPair = 27.0   // interaction kernel flops per particle pair
)

// Build generates the FMM task graph for the parameters.
func Build(p Params) *runtime.Graph {
	if p.Machine == nil {
		panic("fmm: nil machine")
	}
	if p.Height < 3 {
		panic(fmt.Sprintf("fmm: height %d too small (need >= 3)", p.Height))
	}
	t := BuildTree(p)
	return BuildFromTree(p, t)
}

// BuildFromTree generates the group-tree task graph over a prebuilt
// octree.
func BuildFromTree(p Params, t *Tree) *runtime.Graph {
	g := runtime.NewGraph()
	b := g.NewBatch(0)
	k := p.order()
	kk := float64(k * k)
	kkk := kk * float64(k)
	gr := buildGrouping(t, p.groupSize())
	leafLevel := t.Height - 1

	cpuPeak := p.Machine.Archs[platform.ArchCPU].PeakGFlops * 1e9
	gpuPeak := 0.0
	if int(platform.ArchGPU) < len(p.Machine.Archs) {
		gpuPeak = p.Machine.Archs[platform.ArchGPU].PeakGFlops * 1e9
	}
	// cost fills one row of the batch's cost slab; gpuEff 0 means the
	// operator is CPU-only.
	cost := func(flops, cpuEff, gpuEff float64) []float64 {
		c := b.Cost(len(p.Machine.Archs))
		c[platform.ArchCPU] = flops / (cpuPeak * cpuEff)
		if gpuEff > 0 && gpuPeak > 0 {
			c[platform.ArchGPU] = flops/(gpuPeak*gpuEff) + gpuLaunch
		}
		return c
	}

	// Group handles: multipole and local per (level, group); particle
	// blocks per leaf group.
	mpole := make([][]*runtime.DataHandle, t.Height)
	local := make([][]*runtime.DataHandle, t.Height)
	for l := 2; l < t.Height; l++ {
		mpole[l] = make([]*runtime.DataHandle, len(gr.groups[l]))
		local[l] = make([]*runtime.DataHandle, len(gr.groups[l]))
		for gi, cells := range gr.groups[l] {
			sz := int64(len(cells)) * int64(kk) * 8
			mpole[l][gi] = b.NewData(sz, "M%d.%d", l, gi)
			local[l][gi] = b.NewData(sz, "L%d.%d", l, gi)
		}
	}
	nLeafGroups := len(gr.groups[leafLevel])
	partIn := make([]*runtime.DataHandle, nLeafGroups)
	partOut := make([]*runtime.DataHandle, nLeafGroups)
	groupParticles := make([]int, nLeafGroups)
	for gi, cells := range gr.groups[leafLevel] {
		n := 0
		for _, c := range cells {
			n += t.Leaves[c]
		}
		groupParticles[gi] = n
		partIn[gi] = b.NewData(int64(n)*32, "Pin.%d", gi)
		partOut[gi] = b.NewData(int64(n)*32, "Pout.%d", gi)
	}

	// groupRefs collects the distinct groups at `level` containing the
	// given cells, in deterministic ascending order.
	groupRefs := func(level int, cells []cellKey) []int {
		set := map[int]bool{}
		for _, c := range cells {
			set[gr.index[level][c]] = true
		}
		out := make([]int, 0, len(set))
		for gi := range set {
			out = append(out, gi)
		}
		sort.Ints(out)
		return out
	}

	// Tasks are collected as specs and submitted in one batch at the
	// end; the spec order below is exactly the former Submit order, so
	// the inferred DAG is identical. acc is scratch: Add copies each
	// task's accesses into the graph.
	var acc []runtime.Access
	// P2M per leaf group.
	for gi := range gr.groups[leafLevel] {
		fl := float64(groupParticles[gi]) * kk * 4
		acc = append(acc[:0],
			runtime.Access{Handle: partIn[gi], Mode: runtime.R},
			runtime.Access{Handle: mpole[leafLevel][gi], Mode: runtime.W})
		b.Add(runtime.TaskSpec{
			Kind: "p2m", Footprint: uint64(k), Flops: fl, Cost: cost(fl, treeOpEff, 0),
			Accesses: acc,
		})
	}
	// P2P per leaf group, submitted before the far-field passes: the
	// direct pass only touches particle blocks, so it is ready from the
	// start — TBFMM's P2P and L2P updates commute, and submitting P2P
	// first keeps the accelerator fed throughout the tree traversal
	// (the disconnected-DAG property the paper's FMM analysis relies
	// on). With UseCommute the same freedom is expressed through the
	// access mode instead of the submission order.
	outMode := runtime.RW
	if p.UseCommute {
		outMode = runtime.Commute
	}
	for gi, cells := range gr.groups[leafLevel] {
		var nbrCells []cellKey
		pairs := 0.0
		for _, c := range cells {
			n := t.Leaves[c]
			pairs += float64(n) * float64(n)
			for _, nb := range t.neighbours(c) {
				pairs += float64(n) * float64(t.Leaves[nb])
				nbrCells = append(nbrCells, nb)
			}
		}
		acc = append(acc[:0],
			runtime.Access{Handle: partIn[gi], Mode: runtime.R},
			runtime.Access{Handle: partOut[gi], Mode: outMode})
		for _, ng := range groupRefs(leafLevel, nbrCells) {
			if ng == gi {
				continue
			}
			acc = append(acc, runtime.Access{Handle: partIn[ng], Mode: runtime.R})
		}
		fl := pairs * flopPerPair
		b.Add(runtime.TaskSpec{
			Kind: "p2p", Footprint: uint64(p.groupSize()), Flops: fl,
			Cost: cost(fl, p2pCPUEff, p2pGPUEff), Accesses: acc,
		})
	}
	// M2M upward: one task per parent group.
	for l := leafLevel - 1; l >= 2; l-- {
		for gi, cells := range gr.groups[l] {
			var children []cellKey
			for _, c := range cells {
				for cx := 0; cx < 2; cx++ {
					for cy := 0; cy < 2; cy++ {
						for cz := 0; cz < 2; cz++ {
							ch := cellKey{l + 1, c.ix*2 + cx, c.iy*2 + cy, c.iz*2 + cz}
							if t.Cells[l+1][ch] {
								children = append(children, ch)
							}
						}
					}
				}
			}
			acc = append(acc[:0], runtime.Access{Handle: mpole[l][gi], Mode: runtime.W})
			for _, cg := range groupRefs(l+1, children) {
				acc = append(acc, runtime.Access{Handle: mpole[l+1][cg], Mode: runtime.R})
			}
			fl := float64(len(children)) * kkk * 2
			b.Add(runtime.TaskSpec{
				Kind: "m2m", Footprint: uint64(k), Flops: fl, Cost: cost(fl, treeOpEff, 0),
				Accesses: acc,
			})
		}
	}
	// M2L per group and level.
	for l := 2; l < t.Height; l++ {
		for gi, cells := range gr.groups[l] {
			var ilist []cellKey
			nInter := 0
			for _, c := range cells {
				il := t.interactionList(c)
				nInter += len(il)
				ilist = append(ilist, il...)
			}
			if nInter == 0 {
				continue
			}
			acc = append(acc[:0], runtime.Access{Handle: local[l][gi], Mode: runtime.RW})
			for _, sg := range groupRefs(l, ilist) {
				acc = append(acc, runtime.Access{Handle: mpole[l][sg], Mode: runtime.R})
			}
			fl := float64(nInter) * kkk * 8
			b.Add(runtime.TaskSpec{
				Kind: "m2l", Footprint: uint64(k), Flops: fl,
				Cost: cost(fl, m2lCPUEff, 0), Accesses: acc,
			})
		}
	}
	// L2L downward: one task per child group.
	for l := 3; l < t.Height; l++ {
		for gi, cells := range gr.groups[l] {
			var parents []cellKey
			for _, c := range cells {
				parents = append(parents, c.parent())
			}
			acc = append(acc[:0], runtime.Access{Handle: local[l][gi], Mode: runtime.RW})
			for _, pg := range groupRefs(l-1, parents) {
				acc = append(acc, runtime.Access{Handle: local[l-1][pg], Mode: runtime.R})
			}
			fl := float64(len(cells)) * kkk * 2
			b.Add(runtime.TaskSpec{
				Kind: "l2l", Footprint: uint64(k), Flops: fl, Cost: cost(fl, treeOpEff, 0),
				Accesses: acc,
			})
		}
	}
	// L2P per leaf group closes the far-field pass.
	for gi := range gr.groups[leafLevel] {
		flL2P := float64(groupParticles[gi]) * kk * 4
		acc = append(acc[:0],
			runtime.Access{Handle: local[leafLevel][gi], Mode: runtime.R},
			runtime.Access{Handle: partOut[gi], Mode: outMode})
		b.Add(runtime.TaskSpec{
			Kind: "l2p", Footprint: uint64(k), Flops: flL2P, Cost: cost(flL2P, treeOpEff, 0),
			Accesses: acc,
		})
	}
	b.Submit()
	return g
}

// NumGroups returns the number of leaf groups the parameters produce
// (useful for sizing expectations in tests and reports).
func NumGroups(p Params, t *Tree) int {
	gs := p.groupSize()
	return (len(t.Cells[t.Height-1]) + gs - 1) / gs
}
