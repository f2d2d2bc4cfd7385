package sim

import (
	"fmt"

	"multiprio/internal/runtime"
)

// dumpWatchdog writes the diagnostic dump of a wedged run: progress
// summary, per-worker state, and the tail of the scheduler decision
// log. Every line is prefixed so the dump is greppable out of
// interleaved CI output.
func (eng *simulation) dumpWatchdog(wd runtime.Watchdog) {
	w := wd.Output()
	fmt.Fprintf(w, "sim watchdog: no completion after %v wall time\n", wd.Deadline)
	fmt.Fprintf(w, "  t=%g events=%d tasks-left=%d/%d scheduler=%s pending-events=%d\n",
		eng.now, eng.events, eng.Remaining(), len(eng.graph.Tasks), eng.sched.Name(), eng.pq.len())
	for i := range eng.workers {
		wk := &eng.workers[i]
		state := "idle"
		switch {
		case eng.Dead(wk.info.ID):
			state = "dead"
		case wk.computing != runtime.NoAttempt:
			t := eng.Task(wk.computing)
			state = fmt.Sprintf("computing task %d (%s)", t.ID, t.Kind())
		case wk.inflight > 0:
			state = "staging"
		}
		fmt.Fprintf(w, "  worker %-12s %s inflight=%d staged=%d\n",
			wk.unit.Name, state, wk.inflight, len(wk.staged))
	}
	eng.Tail.Dump(w)
}
