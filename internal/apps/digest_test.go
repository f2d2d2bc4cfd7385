// Package apps holds the generators' graph digests: each pins one built
// graph byte for byte, so a change to how a graph stores its tasks must
// leave every task, access and handle as it was.
package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"multiprio/internal/apps/dense"
	"multiprio/internal/apps/randdag"
	"multiprio/internal/apps/sparseqr"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// graphDigest hashes everything a run reads of a graph: each task's
// kind, footprint, flops, priority, cost row (its length included),
// whether it has a kernel, and its uses in order; then each handle's
// name, size and home node. Two graphs with one digest have the same
// tasks, accesses and handles, so the same inferred DAG.
func graphDigest(g *runtime.Graph) string {
	h := sha256.New()
	for _, t := range g.Tasks {
		fmt.Fprintf(h, "T %s %d %x %d k%t", t.Kind(), t.Footprint, math.Float64bits(t.Flops), t.Priority, t.Kernel() != nil)
		for _, c := range t.Cost() {
			fmt.Fprintf(h, " c%x", math.Float64bits(c))
		}
		for _, u := range t.Uses() {
			fmt.Fprintf(h, " u%d:%d", u.Handle, u.Mode)
		}
		fmt.Fprintln(h)
	}
	for _, d := range g.Handles {
		fmt.Fprintf(h, "H %s %d %d\n", d.Name, d.Bytes, d.Home)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGraphDigest pins a randdag graph of 10^3 tasks without and with
// GPU-typed tasks and commuting updates; dense Cholesky with user
// priorities, with kernels attached, and hierarchical, whose two tile
// sizes give it twice the shared cost rows; and one sparse-QR matrix.
func TestGraphDigest(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	qr, ok := sparseqr.ByName("cat_ears_4_4")
	if !ok {
		t.Fatal("cat_ears_4_4 is not in the matrix set")
	}
	cases := []struct {
		name  string
		build func() *runtime.Graph
		want  string
	}{
		{"randdag/plain", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: 20, Width: 50, EdgeProb: 0.1, Machine: m, Seed: 1})
		}, "19d0f3676518bd193583ea7a8dd4f0d0c75b91ce0b6708f39b124a2e1a101619"},
		{"randdag/typed+commute", func() *runtime.Graph {
			return randdag.Build(randdag.Params{Layers: 20, Width: 50, EdgeProb: 0.2, TypedFraction: 0.3,
				CommuteShare: 0.25, Machine: m, Seed: 2})
		}, "cd402dcec285427b95553c3eab52f674d3f6d2f47a43f82973801875c7993fc4"},
		{"dense/cholesky", func() *runtime.Graph {
			return dense.Cholesky(dense.Params{Tiles: 10, TileSize: 960, Machine: m, UserPriorities: true})
		}, "44f435cbe878aab422ccf2ed6735cda129720a3f67699c911b8babfb40c9d32a"},
		{"dense/cholesky-kernels", func() *runtime.Graph {
			g, _ := dense.CholeskyWithKernels(dense.Params{Tiles: 6, TileSize: 8, Machine: m}, 3)
			return g
		}, "adf17fdb9319fdd816a012aab928ca5e7a4dead56dda5d4e5163946071c74506"},
		{"dense/hierarchical", func() *runtime.Graph {
			return dense.HierarchicalCholesky(dense.HierParams{Blocks: 4, SubTiles: 3, TileSize: 320, Machine: m, UserPriorities: true})
		}, "f96ab2d4d1b98350e53dea94462afda12b52092469893a1455cd736e2e778229"},
		{"sparseqr/cat_ears_4_4", func() *runtime.Graph {
			return sparseqr.Build(qr, sparseqr.Params{Machine: m})
		}, "40b80f10f9cba420f4b3f5913c01b62d0055e2e0832e09fae53ea49a742116ca"},
	}
	for _, c := range cases {
		if got := graphDigest(c.build()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
