package runtime

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"multiprio/internal/obs"
	"multiprio/internal/platform"
)

// ErrWatchdog is wrapped by the error both engines return when the
// progress watchdog aborts a wedged run. Match with errors.Is.
var ErrWatchdog = errors.New("watchdog deadline exceeded")

// ErrStarved is wrapped by the error both engines return when a run ends
// with tasks left that nothing can run: the policy hands out no work
// while nothing runs and nothing is on its way, or every worker able to
// run them is dead. Match with errors.Is.
var ErrStarved = errors.New("runtime: scheduler starved all workers with tasks remaining")

// DefaultWatchdogTail is how many recent scheduler decisions the
// watchdog keeps for its diagnostic dump.
const DefaultWatchdogTail = 32

// Watchdog configures the engines' progress watchdog. A run that has
// not completed Deadline of wall-clock time after it started is
// aborted with ErrWatchdog, and a diagnostic dump — the tail of the
// scheduler decision log plus per-worker state — is written to Out, so
// a hang becomes a diagnosable failure instead of a silent CI timeout.
// The deadline is wall-clock in both engines: the simulator's virtual
// clock cannot hang, but its event loop can (a scheduler that never
// pops, a starved commute lock), and wall time is what CI kills on.
type Watchdog struct {
	// Deadline arms the watchdog when > 0.
	Deadline time.Duration
	// Out receives the diagnostic dump. Nil means os.Stderr.
	Out io.Writer
}

// Armed reports whether the watchdog is active.
func (w Watchdog) Armed() bool { return w.Deadline > 0 }

// Output returns the effective dump destination.
func (w Watchdog) Output() io.Writer {
	if w.Out != nil {
		return w.Out
	}
	return os.Stderr
}

// watchdogEvery is how many simulator events pass between two reads of
// the wall clock: virtual time is free, syscalls are not.
const watchdogEvery = 256

// Overdue reports whether the watchdog's deadline has passed. n is the
// simulator's event count: the wall clock is read only when it is a
// multiple of 256.
func (f *RunFrame) Overdue(n int64) bool {
	return n&(watchdogEvery-1) == 0 && f.pastDeadline()
}

// pastDeadline is Overdue's wall-clock read, out of line so that the
// simulator's per-event call inlines to the event-count test.
func (f *RunFrame) pastDeadline() bool {
	return !f.deadline.IsZero() && time.Now().After(f.deadline)
}

// Abort fails a run the watchdog found wedged at its deadline: the run's
// error wraps ErrWatchdog, and the diagnostic dump goes to the watchdog's
// output. It does nothing when the run is already over. Only the trigger
// is the engine's: the simulator calls Abort when Overdue, the threaded
// engine from a timer armed for the deadline.
func (f *RunFrame) Abort() {
	if f.Over() {
		return
	}
	f.fail(fmt.Errorf("%s: %w after %v (%d tasks left, %d attempts in flight, t=%g, scheduler %s)",
		f.engine, ErrWatchdog, f.wd.Deadline, f.remaining, f.inFlight(), f.clock.Now(), f.sched.Name()))
	f.dumpWatchdog()
}

// dumpWatchdog writes the diagnostic dump of a wedged run: a header, the
// progress, each worker's state in the core's books, and the tail of the
// scheduler's decisions. Every line is prefixed or indented so the dump
// is greppable out of interleaved CI output.
func (f *RunFrame) dumpWatchdog() {
	w := f.wd.Output()
	fmt.Fprintf(w, "%s watchdog: no completion after %v wall time\n", f.engine, f.wd.Deadline)
	fmt.Fprintf(w, "  t=%g tasks-left=%d/%d attempts=%d scheduler=%s\n",
		f.clock.Now(), f.remaining, len(f.graph.Tasks), f.inFlight(), f.sched.Name())
	for i, u := range f.machine.Units {
		id := platform.UnitID(i)
		state := "idle"
		switch a := f.Holding(id); {
		case f.Dead(id):
			state = "dead"
		case a != NoAttempt:
			t := f.Task(a)
			state = fmt.Sprintf("running task %d (%s)", t.ID, t.Kind())
		}
		fmt.Fprintf(w, "  worker %-12s %s\n", u.Name, state)
	}
	f.Tail.Dump(w)
}

// unfinished is the error of a run that ends with tasks left and nothing
// able to run them. End gives it to a run an engine returns from with
// tasks left; the threaded engine's starvation detector fails the run
// with it.
func (f *RunFrame) unfinished() error {
	return fmt.Errorf("%s: %w (%d of %d tasks unfinished, %d of %d workers live, t=%g, scheduler %s)",
		f.engine, ErrStarved, f.remaining, len(f.graph.Tasks), f.live, len(f.machine.Units), f.clock.Now(), f.sched.Name())
}

// DecisionTail is an obs.Probe keeping a ring buffer of the most recent
// scheduler decisions, so the watchdog can show what the scheduler was
// doing when a run wedged. It is safe for concurrent use (the threaded
// engine probes from many goroutines) and fans in alongside any
// user-attached probe via obs.Combine.
type DecisionTail struct {
	mu   sync.Mutex
	ring []obs.Decision
	next int
	full bool
}

// NewDecisionTail returns a tail keeping the last n decisions.
func NewDecisionTail(n int) *DecisionTail {
	if n <= 0 {
		n = DefaultWatchdogTail
	}
	return &DecisionTail{ring: make([]obs.Decision, n)}
}

// Decision implements obs.Probe.
func (d *DecisionTail) Decision(dec obs.Decision) {
	d.mu.Lock()
	d.ring[d.next] = dec
	d.next++
	if d.next == len(d.ring) {
		d.next = 0
		d.full = true
	}
	d.mu.Unlock()
}

// Counter implements obs.Probe (counters are not kept).
func (d *DecisionTail) Counter(string, float64, int64, float64) {}

// Tail returns the retained decisions, oldest first.
func (d *DecisionTail) Tail() []obs.Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.full {
		return append([]obs.Decision(nil), d.ring[:d.next]...)
	}
	out := make([]obs.Decision, 0, len(d.ring))
	out = append(out, d.ring[d.next:]...)
	out = append(out, d.ring[:d.next]...)
	return out
}

// Dump writes the "decision tail" section that closes both engines'
// watchdog dumps: the retained decisions in the decision log's canonical
// text format, oldest first. (Named Dump, not WriteTo: it does not
// implement io.WriterTo.)
func (d *DecisionTail) Dump(w io.Writer) {
	fmt.Fprintln(w, "  decision tail (oldest first):")
	tail := d.Tail()
	if len(tail) == 0 {
		fmt.Fprintln(w, "    (no scheduler decisions recorded)")
		return
	}
	for _, dec := range tail {
		fmt.Fprintf(w, "    %s\n", obs.FormatDecision(dec))
	}
}
