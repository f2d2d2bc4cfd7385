package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunClusterQuick runs the whole scaling study at quick scale:
// every cell must be oracle-validated (multi-node cells through the
// inter-node transfer replay) and multi-node runs must actually use the
// interconnect.
func TestRunClusterQuick(t *testing.T) {
	r := quickResult[*ClusterResult](t, "cluster")
	want := len(clusterNodeCounts) * len(clusterInners) * 2
	if len(r.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(r.Cells), want)
	}
	for _, c := range r.Cells {
		if c.Makespan <= 0 {
			t.Errorf("%s/%s on %d nodes has makespan %g", c.Workload, c.Inner, c.Nodes, c.Makespan)
		}
		if c.Nodes == 1 && c.InterBytes != 0 {
			t.Errorf("%s/%s single node reports %d inter-node bytes", c.Workload, c.Inner, c.InterBytes)
		}
		if c.Nodes > 1 && c.InterBytes == 0 {
			t.Errorf("%s/%s on %d nodes moved no data across the interconnect", c.Workload, c.Inner, c.Nodes)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, frag := range []string{"Cluster scaling", "nodes", "oracle", "pass"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("table reports oracle failures:\n%s", out)
	}
}
