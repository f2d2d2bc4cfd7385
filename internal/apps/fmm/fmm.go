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
	"slices"

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
	// UseCommute marks the particle-output updates (P2P, L2P) with the
	// Commute access mode, as TBFMM does with STARPU_COMMUTE: the two
	// accumulations into each leaf group's output may run in either
	// order, serialized only at execution time.
	UseCommute bool
	Machine    *platform.Machine
	Seed       int64
}

// multipoleOrder is the expansion order k of the multipole and local
// expansions, which sizes the far-field operators' costs.
const multipoleOrder = 8

func (p Params) groupSize() int {
	if p.GroupSize <= 0 {
		return 64
	}
	return p.GroupSize
}

// maxHeight bounds Params.Height: a Morton code keeps 21 bits per
// axis, and the leaves of a tree of height h need h-1 of them.
const maxHeight = 22

// spread moves bit b of the low 21 bits of v to bit 3b.
func spread(v uint64) uint64 {
	v &= 1<<21 - 1
	v = (v | v<<32) & 0x001f00000000ffff
	v = (v | v<<16) & 0x001f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact is spread's inverse: it gathers bit 3b of v into bit b.
func compact(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x001f0000ff0000ff
	v = (v | v>>16) & 0x001f00000000ffff
	v = (v | v>>32) & (1<<21 - 1)
	return v
}

// morton interleaves cell coordinates into a Morton (Z-order) code, the
// order TBFMM packs cells into groups: bit b of x, y and z goes to bit
// 3b, 3b+1 and 3b+2. A cell's parent is its code >> 3.
func morton(x, y, z int) uint64 {
	return spread(uint64(x)) | spread(uint64(y))<<1 | spread(uint64(z))<<2
}

// coords is morton's inverse.
func coords(code uint64) (x, y, z int) {
	return int(compact(code)), int(compact(code >> 1)), int(compact(code >> 2))
}

// Tree is the pruned octree as sorted Morton codes. Level l is a grid
// of side 2^l; its cells are numbered by their rank in Cells[l], and
// group gi of the level is cells [gi·GroupSize, (gi+1)·GroupSize).
type Tree struct {
	Height int
	// Cells[l] holds level l's non-empty cells as ascending Morton codes.
	Cells [][]uint64
	// Leaves[i] is the particle count of leaf Cells[Height-1][i].
	Leaves []int
}

// BuildTree distributes the particles and builds the pruned octree. It
// panics unless 3 <= p.Height <= 22.
func BuildTree(p Params) *Tree {
	if p.Height < 3 || p.Height > maxHeight {
		panic(fmt.Sprintf("fmm: height %d outside [3, %d]", p.Height, maxHeight))
	}
	rng := rand.New(rand.NewSource(p.Seed))
	side := 1 << (p.Height - 1)

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
	codes := make([]uint64, p.Particles)
	for i := range codes {
		x, y, z := sample()
		codes[i] = morton(int(x*float64(side)), int(y*float64(side)), int(z*float64(side)))
	}
	slices.Sort(codes)

	t := &Tree{Height: p.Height, Cells: make([][]uint64, p.Height)}
	// Each run of equal codes is one leaf; the distinct codes are
	// written over the sorted ones.
	leaves := codes[:0]
	for _, c := range codes {
		if n := len(leaves); n > 0 && leaves[n-1] == c {
			t.Leaves[n-1]++
			continue
		}
		leaves = append(leaves, c)
		t.Leaves = append(t.Leaves, 1)
	}
	t.Cells[p.Height-1] = slices.Clone(leaves)
	for l := p.Height - 1; l > 0; l-- {
		var up []uint64
		for _, c := range t.Cells[l] {
			if n := len(up); n == 0 || up[n-1] != c>>3 {
				up = append(up, c>>3)
			}
		}
		t.Cells[l-1] = up
	}
	return t
}

// inside reports whether (x, y, z) is a cell of a grid of the given side.
func inside(side, x, y, z int) bool {
	return uint(x) < uint(side) && uint(y) < uint(side) && uint(z) < uint(side)
}

// neighbours appends to out the indices of the non-empty cells of level
// l adjacent to cell i (excluding it), in dx, dy, dz order.
func (t *Tree) neighbours(out []int, l, i int) []int {
	cells := t.Cells[l]
	x, y, z := coords(cells[i])
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				nx, ny, nz := x+dx, y+dy, z+dz
				if dx == 0 && dy == 0 && dz == 0 || !inside(1<<l, nx, ny, nz) {
					continue
				}
				if j, ok := slices.BinarySearch(cells, morton(nx, ny, nz)); ok {
					out = append(out, j)
				}
			}
		}
	}
	return out
}

// interactionList appends to out the indices of the well-separated
// cells of level l in cell i's parent neighbourhood: children of the
// parent's neighbours that are not adjacent to cell i.
func (t *Tree) interactionList(out []int, l, i int) []int {
	cells := t.Cells[l]
	x, y, z := coords(cells[i])
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				px, py, pz := x>>1+dx, y>>1+dy, z>>1+dz
				if !inside(1<<(l-1), px, py, pz) {
					continue
				}
				// The parent neighbour's children are one run of the level.
				par := morton(px, py, pz)
				j, _ := slices.BinarySearch(cells, par<<3)
				for ; j < len(cells) && cells[j]>>3 == par; j++ {
					o := int(cells[j] & 7) // the child's octant
					cx, cy, cz := 2*px+(o&1), 2*py+(o>>1&1), 2*pz+(o>>2)
					if abs(cx-x) > 1 || abs(cy-y) > 1 || abs(cz-z) > 1 {
						out = append(out, j)
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
	return BuildFromTree(p, BuildTree(p))
}

// BuildFromTree generates the group-tree task graph over a prebuilt
// octree.
func BuildFromTree(p Params, t *Tree) *runtime.Graph {
	g := runtime.NewGraph()
	b := g.NewBatch(0)
	k := multipoleOrder
	kk := float64(k * k)
	kkk := kk * float64(k)
	gs := p.groupSize()
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

	// numGroups is the group count of a level, and span the cells of
	// group gi of level l.
	numGroups := func(l int) int { return (len(t.Cells[l]) + gs - 1) / gs }
	span := func(l, gi int) (lo, hi int) { return gi * gs, min((gi+1)*gs, len(t.Cells[l])) }
	// find is the index of the first cell of level l whose code is at
	// least code.
	find := func(l int, code uint64) int {
		i, _ := slices.BinarySearch(t.Cells[l], code)
		return i
	}
	// groupsOf turns cell indices, in place, into the ascending distinct
	// groups holding them. seen is false between calls; the leaf level
	// has the most cells, so the most groups.
	seen := make([]bool, numGroups(leafLevel))
	groupsOf := func(cells []int) []int {
		groups := cells[:0]
		for _, c := range cells {
			if g := c / gs; !seen[g] {
				seen[g] = true
				groups = append(groups, g)
			}
		}
		for _, g := range groups {
			seen[g] = false
		}
		slices.Sort(groups)
		return groups
	}

	// Group handles: multipole and local per (level, group); particle
	// blocks per leaf group.
	mpole := make([][]*runtime.DataHandle, t.Height)
	local := make([][]*runtime.DataHandle, t.Height)
	for l := 2; l < t.Height; l++ {
		mpole[l] = make([]*runtime.DataHandle, numGroups(l))
		local[l] = make([]*runtime.DataHandle, numGroups(l))
		for gi := range mpole[l] {
			lo, hi := span(l, gi)
			sz := int64(hi-lo) * int64(kk) * 8
			mpole[l][gi] = b.NewData(sz, "M%d.%d", l, gi)
			local[l][gi] = b.NewData(sz, "L%d.%d", l, gi)
		}
	}
	nLeafGroups := numGroups(leafLevel)
	partIn := make([]*runtime.DataHandle, nLeafGroups)
	partOut := make([]*runtime.DataHandle, nLeafGroups)
	groupParticles := make([]int, nLeafGroups)
	for gi := range groupParticles {
		lo, hi := span(leafLevel, gi)
		n := 0
		for _, c := range t.Leaves[lo:hi] {
			n += c
		}
		groupParticles[gi] = n
		partIn[gi] = b.NewData(int64(n)*32, "Pin.%d", gi)
		partOut[gi] = b.NewData(int64(n)*32, "Pout.%d", gi)
	}

	// Tasks are collected as specs and submitted in one batch at the
	// end; the spec order below is exactly the former Submit order, so
	// the inferred DAG is identical. acc and cells are scratch: Add
	// copies each task's accesses into the graph.
	var acc []runtime.Access
	var cells []int
	// P2M per leaf group.
	for gi := 0; gi < nLeafGroups; gi++ {
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
	for gi := 0; gi < nLeafGroups; gi++ {
		lo, hi := span(leafLevel, gi)
		cells = cells[:0]
		pairs := 0.0
		for i := lo; i < hi; i++ {
			n := t.Leaves[i]
			pairs += float64(n) * float64(n)
			first := len(cells)
			cells = t.neighbours(cells, leafLevel, i)
			for _, nb := range cells[first:] {
				pairs += float64(n) * float64(t.Leaves[nb])
			}
		}
		acc = append(acc[:0],
			runtime.Access{Handle: partIn[gi], Mode: runtime.R},
			runtime.Access{Handle: partOut[gi], Mode: outMode})
		for _, ng := range groupsOf(cells) {
			if ng == gi {
				continue
			}
			acc = append(acc, runtime.Access{Handle: partIn[ng], Mode: runtime.R})
		}
		fl := pairs * flopPerPair
		b.Add(runtime.TaskSpec{
			Kind: "p2p", Footprint: uint64(gs), Flops: fl,
			Cost: cost(fl, p2pCPUEff, p2pGPUEff), Accesses: acc,
		})
	}
	// M2M upward: one task per parent group. The children of the
	// group's cells are one run of the level below.
	for l := leafLevel - 1; l >= 2; l-- {
		for gi := 0; gi < numGroups(l); gi++ {
			lo, hi := span(l, gi)
			first, end := find(l+1, t.Cells[l][lo]<<3), find(l+1, (t.Cells[l][hi-1]+1)<<3)
			acc = append(acc[:0], runtime.Access{Handle: mpole[l][gi], Mode: runtime.W})
			for cg := first / gs; cg <= (end-1)/gs; cg++ {
				acc = append(acc, runtime.Access{Handle: mpole[l+1][cg], Mode: runtime.R})
			}
			fl := float64(end-first) * kkk * 2
			b.Add(runtime.TaskSpec{
				Kind: "m2m", Footprint: uint64(k), Flops: fl, Cost: cost(fl, treeOpEff, 0),
				Accesses: acc,
			})
		}
	}
	// M2L per group and level.
	for l := 2; l < t.Height; l++ {
		for gi := 0; gi < numGroups(l); gi++ {
			lo, hi := span(l, gi)
			cells = cells[:0]
			for i := lo; i < hi; i++ {
				cells = t.interactionList(cells, l, i)
			}
			if len(cells) == 0 {
				continue
			}
			fl := float64(len(cells)) * kkk * 8
			acc = append(acc[:0], runtime.Access{Handle: local[l][gi], Mode: runtime.RW})
			for _, sg := range groupsOf(cells) {
				acc = append(acc, runtime.Access{Handle: mpole[l][sg], Mode: runtime.R})
			}
			b.Add(runtime.TaskSpec{
				Kind: "m2l", Footprint: uint64(k), Flops: fl,
				Cost: cost(fl, m2lCPUEff, 0), Accesses: acc,
			})
		}
	}
	// L2L downward: one task per child group. The parents of the
	// group's cells are one run of the level above.
	for l := 3; l < t.Height; l++ {
		for gi := 0; gi < numGroups(l); gi++ {
			lo, hi := span(l, gi)
			first, last := find(l-1, t.Cells[l][lo]>>3), find(l-1, t.Cells[l][hi-1]>>3)
			acc = append(acc[:0], runtime.Access{Handle: local[l][gi], Mode: runtime.RW})
			for pg := first / gs; pg <= last/gs; pg++ {
				acc = append(acc, runtime.Access{Handle: local[l-1][pg], Mode: runtime.R})
			}
			fl := float64(hi-lo) * kkk * 2
			b.Add(runtime.TaskSpec{
				Kind: "l2l", Footprint: uint64(k), Flops: fl, Cost: cost(fl, treeOpEff, 0),
				Accesses: acc,
			})
		}
	}
	// L2P per leaf group closes the far-field pass.
	for gi := 0; gi < nLeafGroups; gi++ {
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
