package trace

import (
	"math/rand"
	"testing"
)

// growRun replays a run of total tasks in which task i emits
// perTask(i) records, each appended through GrowProjected the way the
// simulator does it, and returns the final slice and the growth steps
// taken. It fails the test when a step breaks the per-step bounds.
func growRun(t *testing.T, total int, perTask func(i int) int) (s []int32, steps int) {
	t.Helper()
	for done := 0; done < total; done++ {
		for k := perTask(done); k > 0; k-- {
			before := cap(s)
			s = GrowProjected(s, done, total)
			if cap(s) != before {
				steps++
				n := len(s)
				if cap(s) <= n || cap(s) > max(growFloor, 2*n) || (n >= growFloor && cap(s) < n+n/4) {
					t.Fatalf("step at len %d (%d of %d tasks done) reserved %d, want more than n (1.25n past the floor) and at most max(%d, 2n)",
						n, done, total, cap(s), growFloor)
				}
			}
			s = append(s, int32(done))
		}
	}
	return s, steps
}

// stepsTo counts the growth steps a fixed rule takes from growFloor to
// hold n records: doubling, or growing by a quarter — what append does
// to a large slice.
func stepsTo(n int, grow func(c int) int) (steps int) {
	for c := 0; c < n; steps++ {
		c = max(growFloor, grow(c))
	}
	return steps
}

func doublingSteps(n int) int { return stepsTo(n, func(c int) int { return 2 * c }) }
func quarterSteps(n int) int  { return stepsTo(n, func(c int) int { return c + c/4 }) }

func TestGrowProjected(t *testing.T) {
	const total = 100_000
	window := func(from, to, each int) func(int) int {
		return func(i int) int {
			if i >= from && i < to {
				return each
			}
			return 0
		}
	}
	t.Run("steady rate lands on the final size", func(t *testing.T) {
		for _, each := range []int{1, 3, 8} {
			s, steps := growRun(t, total, window(0, total, each))
			if limit := int(1.25 * float64(len(s))); cap(s) > limit {
				t.Errorf("%d per task: cap %d for %d records, want <= %d", each, cap(s), len(s), limit)
			}
			if limit := doublingSteps(len(s)) + 1; steps > limit {
				t.Errorf("%d per task: %d steps, want <= %d (doubling, then the projected ones)", each, steps, limit)
			}
		}
	})
	t.Run("jittered rate", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		s, _ := growRun(t, total, func(int) int { return rng.Intn(6) })
		if limit := int(1.25 * float64(len(s))); cap(s) > limit {
			t.Errorf("cap %d for %d records, want <= %d", cap(s), len(s), limit)
		}
	})
	t.Run("few records stay on the floor", func(t *testing.T) {
		s, steps := growRun(t, total, window(0, total, 0))
		if s != nil || steps != 0 {
			t.Errorf("no records: cap %d after %d steps, want nothing reserved", cap(s), steps)
		}
		s, steps = growRun(t, total, window(500, 500+growFloor/2, 1))
		if cap(s) != growFloor || steps != 1 {
			t.Errorf("%d records: cap %d after %d steps, want the floor %d in one", len(s), cap(s), steps, growFloor)
		}
	})
	// Progress says nothing about records that all come early or all
	// come late; the clamps keep such a run within what doubling
	// reserves, in no more steps than growing by a quarter takes.
	t.Run("front-loaded is plain doubling", func(t *testing.T) {
		s, steps := growRun(t, total, window(0, total/20, 40))
		if cap(s) > 2*len(s) || steps > doublingSteps(len(s)) {
			t.Errorf("cap %d for %d records in %d steps, want <= %d in <= %d", cap(s), len(s), steps, 2*len(s), doublingSteps(len(s)))
		}
	})
	t.Run("back-loaded grows by a quarter at least", func(t *testing.T) {
		s, steps := growRun(t, total, window(total-total/20, total, 40))
		if cap(s) > 2*len(s) || steps > quarterSteps(len(s)) {
			t.Errorf("cap %d for %d records in %d steps, want <= %d in <= %d", cap(s), len(s), steps, 2*len(s), quarterSteps(len(s)))
		}
	})
	t.Run("any progress reading", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 2000; i++ {
			n := rng.Intn(1 << 16)
			tot := rng.Intn(1 << 20)
			done := rng.Intn(tot + 1)
			if i%7 == 0 {
				done = 0
			}
			s := GrowProjected(make([]int32, n), done, tot)
			if c := cap(s); len(s) != n || c <= n || c > max(growFloor, 2*n) || (n >= growFloor && c < n+n/4) {
				t.Fatalf("len %d, %d of %d done: got len %d cap %d", n, done, tot, len(s), c)
			}
		}
	})
}
