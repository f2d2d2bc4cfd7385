package fmm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"multiprio/internal/platform"
	"multiprio/internal/runtime"
)

// graphDigest hashes everything a run reads of the generated graph: each
// task's kind, footprint, flops, cost row and uses in order, and each
// handle's name and size. Two builds with one digest emit the same
// tasks, accesses and handles, so the same inferred DAG.
func graphDigest(g *runtime.Graph) string {
	h := sha256.New()
	for _, t := range g.Tasks {
		fmt.Fprintf(h, "T %s %d %x", t.Kind(), t.Footprint, math.Float64bits(t.Flops))
		for _, c := range t.Cost() {
			fmt.Fprintf(h, " c%x", math.Float64bits(c))
		}
		for _, u := range t.Uses() {
			fmt.Fprintf(h, " u%d:%d", u.Handle, u.Mode)
		}
		fmt.Fprintln(h)
	}
	for _, d := range g.Handles {
		fmt.Fprintf(h, "H %s %d\n", d.Name, d.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGraphDigest pins the generated graphs byte for byte over the
// parameters the studies do not reach: every height from 3 to 7 (height
// 3 emits no M2M or L2L task), both group sizes, uniform and clustered
// particles, commuting outputs, and a tree so sparse that most groups
// hold isolated cells.
func TestGraphDigest(t *testing.T) {
	m := platform.IntelV100(platform.Config{})
	cases := []struct {
		p    Params
		want string
	}{
		{Params{Particles: 2_000, Height: 3, Seed: 1},
			"8bc1072723ed8903ff25ad6473420fe0346b2232a2fcf7a50badbca4188e40d7"},
		{Params{Particles: 20_000, Height: 4, GroupSize: 8, Seed: 2},
			"ffb7579a3509dba85461314d5ec90dd45667d003eb05d004785b503305488af2"},
		{Params{Particles: 50_000, Height: 5, Clustered: true, Seed: 3},
			"e3e4a39576bbc911362c6ec557fd17cccfb0d0f6f64a9c61feb5ff2bced6d4a6"},
		{Params{Particles: 50_000, Height: 5, GroupSize: 8, UseCommute: true, Seed: 4},
			"1a7c42000f64a97d226fc5dddcfea12b331abfff3e52f500f4c3185c80416d9b"},
		{Params{Particles: 100_000, Height: 6, GroupSize: 8, Clustered: true, Seed: 5},
			"502cd769cb9284ea447c2431b3c5ecc02e049048332a7c136fef21fb60ef03d6"},
		{Params{Particles: 30_000, Height: 7, Clustered: true, Seed: 6},
			"35c2a83ce8b7fdc3e2b9c57e3a5122fff4027629cfe1f15ca55d2b6e596df4f8"},
		{Params{Particles: 50, Height: 7, GroupSize: 8, Seed: 7},
			"ef7377760acc4b10e868b0430890fc68839dfcb12f67fe5db4cb7230cbbf8948"},
	}
	for _, c := range cases {
		p := c.p
		p.Machine = m
		name := fmt.Sprintf("n=%d,h=%d,gs=%d,clustered=%t,commute=%t",
			p.Particles, p.Height, p.GroupSize, p.Clustered, p.UseCommute)
		if got := graphDigest(Build(p)); got != c.want {
			t.Errorf("%s: digest %s, want %s", name, got, c.want)
		}
	}
}
