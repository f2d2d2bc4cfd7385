package runtime

import (
	"testing"
	"time"

	"multiprio/internal/platform"
)

// TestThreadedArrivalGating checks the threaded engine holds tasks back
// until their wall-clock arrival instants and that the starvation
// detector does not fire while work is still due to arrive: with every
// arrival strictly in the future, all workers idle through the initial
// window and the run must still complete.
func TestThreadedArrivalGating(t *testing.T) {
	d := time.Millisecond
	g := faultTestGraph(12, d)
	arrivals := make([]float64, len(g.Tasks))
	for i := range arrivals {
		arrivals[i] = 0.002 * float64(1+i)
	}
	eng, err := NewThreadedEngine(platform.CPUOnly(4), &fifoSched{}, WithArrivals(arrivals))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(g)
	if err != nil {
		t.Fatalf("streamed threaded run failed: %v", err)
	}
	// Wall-clock slack: timers may fire marginally early per the runtime
	// documentation of time.AfterFunc only guaranteeing "not before".
	const eps = 1e-4
	for _, task := range g.Tasks {
		if start := res.Tasks[task.ID].StartAt; start < arrivals[task.ID]-eps {
			t.Errorf("task %d started at %g before its arrival at %g", task.ID, start, arrivals[task.ID])
		}
	}
	if res.Makespan < arrivals[len(arrivals)-1]-eps {
		t.Errorf("makespan %g precedes the last arrival %g", res.Makespan, arrivals[len(arrivals)-1])
	}
}

// TestThreadedArrivalValidation checks arrival plans are validated on
// the threaded engine too.
func TestThreadedArrivalValidation(t *testing.T) {
	g := faultTestGraph(4, time.Millisecond)
	eng, err := NewThreadedEngine(platform.CPUOnly(2), &fifoSched{}, WithArrivals([]float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(g); err == nil {
		t.Fatal("mismatched arrival plan accepted")
	}
}
