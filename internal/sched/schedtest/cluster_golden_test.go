package schedtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"multiprio/internal/oracle"
	"multiprio/internal/platform"
	"multiprio/internal/runtime"
	"multiprio/internal/sched/distrib"
	"multiprio/internal/sched/registry"
	"multiprio/internal/sim"

	_ "multiprio/internal/sched/all"
)

// distribOf wraps the named registry policy in the two-level cluster
// distributor. Every conformance policy name is a registry name, so the
// distributor can shard to fresh instances of it per node.
func distribOf(t testing.TB, inner string) *distrib.Scheduler {
	t.Helper()
	s, err := distrib.New(inner, registry.Options{})
	if err != nil {
		t.Fatalf("distrib.New(%s): %v", inner, err)
	}
	return s
}

// clusterMachine builds an n-node cluster of conformance-shaped nodes.
// With n=1 the node keeps the exact name and IDs of conformanceMachine —
// the platform-level passthrough that makes trace byte-identity with the
// single-node goldens possible at all.
func clusterMachine(t testing.TB, n int) *platform.Machine {
	t.Helper()
	m, err := platform.UniformCluster("conf-cluster", n, func(i int) (*platform.Machine, error) {
		name := "conf"
		if n > 1 {
			name = fmt.Sprintf("conf%d", i)
		}
		return platform.NewHeteroNode(name, 5, 10, 2, 100, 8*platform.MiB, 5e9, platform.Config{})
	}, 2e9, 2e-5)
	if err != nil {
		t.Fatalf("UniformCluster(%d): %v", n, err)
	}
	return m
}

// TestClusterN1Golden is the drift-free proof of the cluster refactor:
// a 1-node cluster run through the full two-level stack — NewCluster
// platform, distrib distributor, per-node policy from the registry —
// must be byte-identical to the pre-refactor single-node runs. The
// digests are compared against the SAME golden file as
// TestCanonicalTraceGolden, not a parallel copy: if the single-node
// goldens move, this matrix must move in lockstep or the equivalence is
// broken.
func TestClusterN1Golden(t *testing.T) {
	m := clusterMachine(t, 1)
	if m.NumNodes() != 1 || m.Cluster == nil {
		t.Fatal("clusterMachine(1) is not a 1-node cluster")
	}
	var got bytes.Buffer
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			g := w.build()
			res, err := sim.Run(m, g, distribOf(t, pol.name), runtime.WithMemEvents())
			if err != nil {
				t.Fatalf("%s/distrib:%s: %v", w.name, pol.name, err)
			}
			fmt.Fprintf(&got, "%s/%s %x\n", w.name, pol.name, sha256.Sum256(res.Trace.Canonical()))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "canonical_sha256.golden"))
	if err != nil {
		t.Fatalf("missing single-node golden digests: %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("1-node cluster trace differs from the single-node golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestClusterN1Threaded completes the N=1 equivalence matrix on the
// second engine: the threaded engine is wall-clock nondeterministic, so
// instead of byte identity every run is validated by the oracle.
func TestClusterN1Threaded(t *testing.T) {
	m := clusterMachine(t, 1)
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run(w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				g := w.build()
				eng, err := runtime.NewThreadedEngine(m, distribOf(t, pol.name))
				if err != nil {
					t.Fatalf("NewThreadedEngine: %v", err)
				}
				res, err := eng.Run(g)
				if err != nil {
					t.Fatalf("threaded run: %v", err)
				}
				if err := oracle.Check(g, res.Trace, oracle.Options{}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := checkRunState(res); err != nil {
					t.Fatalf("run state: %v", err)
				}
			})
		}
	}
}

// TestClusterMultiNodeConformance runs every policy over every workload
// on a 2-node cluster under both engines. Simulator runs carry the full
// memory-event stream, so the oracle's inter-node transfer replay is
// active: every value crossing nodes must have traversed an
// interconnect transfer no faster than its link time.
func TestClusterMultiNodeConformance(t *testing.T) {
	m := clusterMachine(t, 2)
	if m.NumNodes() != 2 {
		t.Fatal("clusterMachine(2) is not a 2-node cluster")
	}
	for _, w := range conformanceWorkloads(m) {
		for _, pol := range policies {
			w, pol := w, pol
			t.Run("sim/"+w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				g := w.build()
				sched := distribOf(t, pol.name)
				res, err := sim.Run(m, g, sched, runtime.WithMemEvents())
				if err != nil {
					t.Fatalf("sim.Run: %v", err)
				}
				if err := oracle.Check(g, res.Trace, oracle.Options{OverflowBytes: res.OverflowBytes}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := checkRunState(res); err != nil {
					t.Fatalf("run state: %v", err)
				}
				st := sched.Stats()
				var total int64
				for _, c := range st.TasksPerNode {
					total += c
				}
				if int(total) != len(g.Tasks) {
					t.Errorf("distributor assigned %d tasks, graph has %d", total, len(g.Tasks))
				}
				for n, c := range st.TasksPerNode {
					if c == 0 {
						t.Errorf("node %d was assigned no tasks", n)
					}
				}
			})
			t.Run("threaded/"+w.name+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				g := w.build()
				eng, err := runtime.NewThreadedEngine(m, distribOf(t, pol.name))
				if err != nil {
					t.Fatalf("NewThreadedEngine: %v", err)
				}
				res, err := eng.Run(g)
				if err != nil {
					t.Fatalf("threaded run: %v", err)
				}
				if err := oracle.Check(g, res.Trace, oracle.Options{}); err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if err := checkRunState(res); err != nil {
					t.Fatalf("run state: %v", err)
				}
			})
		}
	}
}

// TestClusterDeterminism pins simulator determinism through the whole
// two-level stack: on multi-node clusters, a rebuilt graph and a fresh
// distributor under the same seed must reproduce the canonical trace
// byte for byte.
func TestClusterDeterminism(t *testing.T) {
	for _, n := range []int{2, 4} {
		for _, inner := range []string{"multiprio", "dmdas"} {
			n, inner := n, inner
			t.Run(fmt.Sprintf("n%d/%s", n, inner), func(t *testing.T) {
				t.Parallel()
				m := clusterMachine(t, n)
				run := func() []byte {
					g := conformanceWorkloads(m)[3].build() // randdag
					res, err := sim.Run(m, g, distribOf(t, inner), runtime.WithMemEvents())
					if err != nil {
						t.Fatalf("sim.Run: %v", err)
					}
					return res.Trace.Canonical()
				}
				a, b := run(), run()
				if !bytes.Equal(a, b) {
					t.Fatalf("same seed produced different traces on a %d-node cluster (%d vs %d bytes)", n, len(a), len(b))
				}
			})
		}
	}
}
