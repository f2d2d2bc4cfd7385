package main

import (
	"sync/atomic"
	"time"
)

// sampleShift makes one call in 2^sampleShift a timed one.
const sampleShift = 6

// opStat accumulates one scheduler operation. Every call is counted;
// only a pseudo-randomly chosen 1 in 64 is timed, because two clock
// reads around each of the ~2 M Pops of a 10^5-task run would double
// the run, and a fixed stride would alias with the engines' round-robin
// wake-ups over the workers. (The issue proposed 1 in 16; at 1 in 64 the
// decorator costs a 10^5-task eager run 1-5 % instead of 12 %, and a
// 2 M-call run still yields 30 000 samples.)
type opStat struct {
	calls, sampled, ns int64
}

// add increments *p; serial callers skip the atomic.
func add(p *int64, d int64, serial bool) int64 {
	if serial {
		*p += d
		return *p
	}
	return atomic.AddInt64(p, d)
}

// begin counts a call and, for a sampled call, returns its start time.
func (o *opStat) begin(serial bool) (t0 time.Time, sampled bool) {
	n := uint64(add(&o.calls, 1, serial))
	// Fibonacci hashing of the call index: the top bits are
	// well-mixed, so "top sampleShift bits are zero" picks calls with no
	// period the engines could lock onto, and picks the same calls in
	// every run of a deterministic simulation.
	if (n*0x9E3779B97F4A7C15)>>(64-sampleShift) != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (o *opStat) end(t0 time.Time, serial bool) {
	add(&o.ns, int64(time.Since(t0)), serial)
	add(&o.sampled, 1, serial)
}

// seconds scales the sampled time to all calls, after taking the cost
// of the empty timer pair out of every sample. Call it after the run.
func (o *opStat) seconds(timerNs float64) float64 {
	if o.sampled == 0 {
		return 0
	}
	per := float64(o.ns)/float64(o.sampled) - timerNs
	if per < 0 {
		per = 0
	}
	return per * float64(o.calls) / 1e9
}

// timedSched decorates a policy with call counts and sampled timings.
// It forwards every call 1:1 and adds no state the policy can see, so
// a simulated schedule is the same with and without it — the traced
// run asserts that on every job.
type timedSched struct {
	inner Scheduler
	// serial is set under the simulator, whose event loop is the only
	// caller: the counters then need no atomics, which on 2.4 M calls
	// is a third of what the decorator costs.
	serial   bool
	initNs   int64
	push     opStat
	pop      opStat
	taskDone opStat
	popNil   int64
}

func (s *timedSched) Name() string { return s.inner.Name() }

func (s *timedSched) Init(env *Env) {
	t0 := time.Now()
	s.inner.Init(env)
	s.initNs += int64(time.Since(t0))
}

func (s *timedSched) Push(t *Task) {
	t0, sampled := s.push.begin(s.serial)
	s.inner.Push(t)
	if sampled {
		s.push.end(t0, s.serial)
	}
}

func (s *timedSched) Pop(w WorkerInfo) *Task {
	t0, sampled := s.pop.begin(s.serial)
	t := s.inner.Pop(w)
	if sampled {
		s.pop.end(t0, s.serial)
	}
	if t == nil {
		add(&s.popNil, 1, s.serial)
	}
	return t
}

func (s *timedSched) TaskDone(t *Task, w WorkerInfo) {
	t0, sampled := s.taskDone.begin(s.serial)
	s.inner.TaskDone(t, w)
	if sampled {
		s.taskDone.end(t0, s.serial)
	}
}

// schedTimes is the folded result of one decorated job.
type schedTimes struct {
	initS, pushS, popS, taskDoneS          float64
	pushCalls, popCalls, popNil, doneCalls int64
}

func (t schedTimes) total() float64 { return t.initS + t.pushS + t.popS + t.taskDoneS }

// times folds the counters; call it after the run has returned.
func (s *timedSched) times(timerNs float64) schedTimes {
	return schedTimes{
		initS:     float64(s.initNs) / 1e9,
		pushS:     s.push.seconds(timerNs),
		popS:      s.pop.seconds(timerNs),
		taskDoneS: s.taskDone.seconds(timerNs),
		pushCalls: s.push.calls,
		popCalls:  s.pop.calls,
		popNil:    s.popNil,
		doneCalls: s.taskDone.calls,
	}
}

// timerCostNs calibrates what a sampled call pays for being timed: the
// time.Now / time.Since pair around nothing.
func timerCostNs() float64 {
	const n = 200_000
	best := 0.0
	for round := 0; round < 5; round++ {
		var sum int64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += int64(time.Since(t0))
		}
		if per := float64(sum) / n; round == 0 || per < best {
			best = per
		}
	}
	return best
}
