package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunScaleQuick runs the scaling study at quick scale: every
// (size, scheduler) row must be oracle-validated with memory events
// on (its events and makespans are pinned by TestGoldenStudies).
func TestRunScaleQuick(t *testing.T) {
	r := quickResult[*ScaleResult](t, "scale")
	want := 3 * len(scaleSchedulers())
	if len(r.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		if !row.Checked {
			t.Errorf("%d/%s not oracle-validated", row.Tasks, row.Scheduler)
		}
		if row.Makespan <= 0 || row.Events <= 0 {
			t.Errorf("%d/%s has degenerate measurements: makespan %g, events %d",
				row.Tasks, row.Scheduler, row.Makespan, row.Events)
		}
		// Every task contributes at least its wake and finish events.
		if row.Events < int64(2*row.Tasks) {
			t.Errorf("%d/%s recorded only %d events", row.Tasks, row.Scheduler, row.Events)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, frag := range []string{"Scaling curve", "events", "oracle", "ok"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
}
