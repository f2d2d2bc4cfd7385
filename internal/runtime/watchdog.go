package runtime

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"multiprio/internal/obs"
)

// ErrWatchdog is wrapped by the error both engines return when the
// progress watchdog aborts a wedged run. Match with errors.Is.
var ErrWatchdog = errors.New("watchdog deadline exceeded")

// DefaultWatchdogTail is how many recent scheduler decisions the
// watchdog keeps for its diagnostic dump.
const DefaultWatchdogTail = 32

// Watchdog configures the engines' progress watchdog. A run that has
// not completed Deadline of wall-clock time after Run was entered is
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
