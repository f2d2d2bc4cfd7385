package sparseqr

import (
	"math"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// Params configures the task-graph generation over an assembly tree.
type Params struct {
	// PanelWidth is the block-column width (default 256) and RowBlock
	// the block-row height (default 1024) fronts are partitioned into.
	// This is the 2D front partitioning of Agullo, Buttari, Guermouche
	// and Lopez (HiPC 2015): it "optimizes parallelism in the DAG while
	// efficiently utilizing GPUs with appropriately sized tasks" — the
	// property the paper's Section VII credits for the sparse QR
	// results.
	PanelWidth int
	RowBlock   int
	Machine    *platform.Machine
	// UserPriorities assigns bottom-level priorities (QR_MUMPS does NOT
	// provide fine-grained user priorities in the paper — "the
	// fine-grained priorities of the tasks are not set by the user" —
	// so experiments leave this false; it exists for ablations).
	UserPriorities bool
}

func (p Params) panel() int {
	if p.PanelWidth <= 0 {
		return 256
	}
	return p.PanelWidth
}

func (p Params) rowBlock() int {
	if p.RowBlock <= 0 {
		return 1024
	}
	return p.RowBlock
}

// Per-kernel model constants.
const (
	memBandwidth = 4e9  // bytes/s for memory-bound symbolic kernels
	memLatency   = 5e-6 // fixed startup of memory-bound kernels
	gpuLaunch    = 1e-5 // kernel-launch equivalent overhead on GPU
	minCost      = 1e-6
)

// Build generates the multifrontal QR task graph for the matrix
// statistics (tree synthesized deterministically from the name).
func Build(stats MatrixStats, p Params) *runtime.Graph {
	return BuildFromTree(BuildTree(stats), p)
}

// BuildFromTree generates the task graph over an explicit tree.
func BuildFromTree(t *Tree, p Params) *runtime.Graph {
	if p.Machine == nil {
		panic("sparseqr: nil machine")
	}
	g := runtime.NewGraph()
	b := g.NewBatch(0)

	tiles := make([][][]*runtime.DataHandle, len(t.Fronts))
	cb := make([]*runtime.DataHandle, len(t.Fronts))
	for i := range t.Fronts {
		f := &t.Fronts[i]
		rt, ct := gridOf(f, p)
		tiles[i] = make([][]*runtime.DataHandle, rt)
		for r := 0; r < rt; r++ {
			tiles[i][r] = make([]*runtime.DataHandle, ct)
			for c := 0; c < ct; c++ {
				h := blockHeight(f.Rows, p.rowBlock(), r)
				w := panelWidth(f.Cols, p.panel(), c)
				tiles[i][r][c] = b.NewData(int64(h)*int64(w)*8, "F%d.t%d.%d", f.ID, r, c)
			}
		}
		if f.Parent >= 0 {
			cbRows := minInt(f.Rows, f.Cols)
			cb[i] = b.NewData(int64(cbRows)*int64(p.panel())*8, "F%d.cb", f.ID)
		}
	}

	// Collect front tasks in postorder (children first) — the order
	// QR_MUMPS traverses the tree, and the order that makes the STF
	// dependencies land correctly — then submit them in one batch.
	submitted := make([]bool, len(t.Fronts))
	var acc accesses
	var submit func(fi int)
	submit = func(fi int) {
		if submitted[fi] {
			return
		}
		f := &t.Fronts[fi]
		for _, c := range f.Children {
			submit(c)
		}
		submitted[fi] = true
		frontSpecs(b, &acc, t, fi, tiles, cb, p)
	}
	for _, r := range t.Roots {
		submit(r)
	}
	b.Submit()
	if p.UserPriorities {
		// Bottom levels at microsecond resolution, as dense assigns them.
		for i, bl := range g.BottomLevels() {
			g.Tasks[i].Priority = int(bl * 1e6)
		}
	}
	return g
}

// gridOf returns the (rowTiles, colPanels) grid of a front.
func gridOf(f *Front, p Params) (rt, ct int) {
	rt = (f.Rows + p.rowBlock() - 1) / p.rowBlock()
	ct = (f.Cols + p.panel() - 1) / p.panel()
	return rt, ct
}

// accesses is the scratch one spec's accesses are assembled in: Add
// copies them into the graph before the next spec reuses it.
type accesses []runtime.Access

// of returns the scratch holding exactly acc.
func (s *accesses) of(acc ...runtime.Access) []runtime.Access {
	*s = append((*s)[:0], acc...)
	return *s
}

// frontSpecs adds to the batch the activate, assemble, and 2D tiled-QR
// kernel task specs (geqrt/unmqr/tsqrt/tsmqr) of one front, then the
// staging of its contribution block for the parent.
func frontSpecs(b *runtime.Batch, acc *accesses, t *Tree, fi int, tiles [][][]*runtime.DataHandle, cb []*runtime.DataHandle, p Params) {
	f := &t.Fronts[fi]
	rt, ct := gridOf(f, p)
	m := p.Machine
	br, w := p.rowBlock(), p.panel()

	// 1. Activation: allocate and fill the front storage.
	acc.of()
	var bytes int64
	for r := 0; r < rt; r++ {
		for c := 0; c < ct; c++ {
			*acc = append(*acc, runtime.Access{Handle: tiles[fi][r][c], Mode: runtime.W})
			bytes += tiles[fi][r][c].Bytes
		}
	}
	b.Add(runtime.TaskSpec{
		Kind:      "activate",
		Footprint: sizeBucket(bytes),
		Cost:      memCost(b, m, bytes),
		Accesses:  *acc,
	})

	// 2. Assemble each child's contribution block, scattered over the
	// first block column's row tiles so independent assemblies overlap.
	for idx, c := range f.Children {
		row := idx % rt
		acc.of(
			runtime.Access{Handle: cb[c], Mode: runtime.R},
			runtime.Access{Handle: tiles[fi][row][0], Mode: runtime.RW},
		)
		if ct > 1 {
			*acc = append(*acc, runtime.Access{Handle: tiles[fi][row][1], Mode: runtime.RW})
		}
		b.Add(runtime.TaskSpec{
			Kind:      "assemble",
			Footprint: sizeBucket(cb[c].Bytes),
			Cost:      memCost(b, m, cb[c].Bytes),
			Accesses:  *acc,
		})
	}

	// 3. 2D tiled QR sweep (flat TS-tree, as PLASMA/qr_mumps fronts).
	kmax := minInt(rt, ct)
	for k := 0; k < kmax; k++ {
		wk := panelWidth(f.Cols, w, k)
		hk := blockHeight(f.Rows, br, k)
		b.Add(runtime.TaskSpec{
			Kind:      "geqrt",
			Footprint: sizeBucket(int64(hk) * int64(wk)),
			Flops:     qrFlops(hk, wk),
			Cost:      panelCost(b, m, qrFlops(hk, wk)),
			Accesses:  acc.of(runtime.Access{Handle: tiles[fi][k][k], Mode: runtime.RW}),
		})
		for j := k + 1; j < ct; j++ {
			wj := panelWidth(f.Cols, w, j)
			fl := 2 * float64(wk) * float64(hk) * float64(wj)
			b.Add(runtime.TaskSpec{
				Kind:      "unmqr",
				Footprint: sizeBucket(int64(hk) * int64(wj)),
				Flops:     fl,
				Cost:      updateCost(b, m, fl, hk*wj),
				Accesses: acc.of(
					runtime.Access{Handle: tiles[fi][k][k], Mode: runtime.R},
					runtime.Access{Handle: tiles[fi][k][j], Mode: runtime.RW},
				),
			})
		}
		for i := k + 1; i < rt; i++ {
			hi := blockHeight(f.Rows, br, i)
			fl := 10.0 / 3 * float64(wk) * float64(wk) * float64(hi)
			b.Add(runtime.TaskSpec{
				Kind:      "tsqrt",
				Footprint: sizeBucket(int64(hi) * int64(wk)),
				Flops:     fl,
				Cost:      panelCost(b, m, fl),
				Accesses: acc.of(
					runtime.Access{Handle: tiles[fi][k][k], Mode: runtime.RW},
					runtime.Access{Handle: tiles[fi][i][k], Mode: runtime.RW},
				),
			})
			for j := k + 1; j < ct; j++ {
				wj := panelWidth(f.Cols, w, j)
				ufl := 4 * float64(wk) * float64(hi) * float64(wj)
				b.Add(runtime.TaskSpec{
					Kind:      "tsmqr",
					Footprint: sizeBucket(int64(hi) * int64(wj)),
					Flops:     ufl,
					Cost:      updateCost(b, m, ufl, hi*wj),
					Accesses: acc.of(
						runtime.Access{Handle: tiles[fi][i][k], Mode: runtime.R},
						runtime.Access{Handle: tiles[fi][k][j], Mode: runtime.RW},
						runtime.Access{Handle: tiles[fi][i][j], Mode: runtime.RW},
					),
				})
			}
		}
	}

	// 4. Stage the contribution block for the parent.
	if f.Parent >= 0 {
		b.Add(runtime.TaskSpec{
			Kind:      "stage",
			Footprint: sizeBucket(cb[fi].Bytes),
			Cost:      memCost(b, m, cb[fi].Bytes),
			Accesses: acc.of(
				runtime.Access{Handle: tiles[fi][rt-1][ct-1], Mode: runtime.R},
				runtime.Access{Handle: cb[fi], Mode: runtime.W},
			),
		})
	}
}

// qrFlops is the operation count of a QR panel factorization of an
// h-by-w block (h >= w typical; transposed otherwise).
func qrFlops(h, w int) float64 {
	fh, fw := float64(h), float64(w)
	if fh >= fw {
		return 2 * fw * fw * (fh - fw/3)
	}
	return 2 * fh * fh * (fw - fh/3)
}

// panelWidth returns the width of block-column q.
func panelWidth(cols, b, q int) int {
	w := cols - q*b
	if w > b {
		w = b
	}
	return w
}

// blockHeight returns the height of block-row r.
func blockHeight(rows, br, r int) int {
	h := rows - r*br
	if h > br {
		h = br
	}
	if h < 1 {
		h = 1
	}
	return h
}

// memCost models CPU-only memory-bound kernels.
func memCost(b *runtime.Batch, m *platform.Machine, bytes int64) []float64 {
	c := b.Cost(len(m.Archs))
	c[platform.ArchCPU] = math.Max(minCost, memLatency+float64(bytes)/memBandwidth)
	return c
}

// panelCost models panel factorizations (geqrt/tsqrt). QR_MUMPS runs
// panels exclusively on CPU cores (the sequential Householder chains
// vectorize poorly and have no profitable CUDA implementation); the
// GPU-accelerated configuration offloads only the updates (Agullo,
// Buttari, Guermouche, Lopez — HiPC 2015).
func panelCost(b *runtime.Batch, m *platform.Machine, flops float64) []float64 {
	c := b.Cost(len(m.Archs))
	cpuPeak := m.Archs[platform.ArchCPU].PeakGFlops * 1e9
	c[platform.ArchCPU] = math.Max(minCost, flops/(cpuPeak*0.35))
	return c
}

// updateCost models the trailing updates (unmqr/tsmqr). Sparse front
// tiles are small and irregular: even large ones reach only a modest
// fraction of the device's DGEMM peak (a few hundred GFlop/s per GPU on
// multifrontal QR updates), which is what keeps CPU workers relevant
// and makes scheduling decisions matter.
func updateCost(b *runtime.Batch, m *platform.Machine, flops float64, area int) []float64 {
	c := b.Cost(len(m.Archs))
	cpuPeak := m.Archs[platform.ArchCPU].PeakGFlops * 1e9
	c[platform.ArchCPU] = math.Max(minCost, flops/(cpuPeak*0.60))
	if int(platform.ArchGPU) < len(m.Archs) {
		gpuPeak := m.Archs[platform.ArchGPU].PeakGFlops * 1e9
		a := float64(area)
		eff := 0.06 * a / (a + 500*500)
		if eff > 0 {
			c[platform.ArchGPU] = math.Max(minCost, flops/(gpuPeak*eff)+gpuLaunch)
		}
	}
	return c
}

// sizeBucket buckets a byte/element count to its highest power of two,
// bounding the number of performance-model buckets.
func sizeBucket(n int64) uint64 {
	if n <= 0 {
		return 0
	}
	b := uint64(1)
	for n > 1 {
		n >>= 1
		b <<= 1
	}
	return b
}
