package serve

import (
	"errors"
	"testing"
	"time"
)

// TestLadderThresholds pins where the ladder steps down and where it counts
// calm at small queue depths. At depths 3 and 7 the rounded step-down length
// sits one frame below 0.75·depth; the engine and the loadgen simulator
// both drive this one Ladder, so they cannot disagree on it.
func TestLadderThresholds(t *testing.T) {
	for _, tc := range []struct{ depth, down, calm int }{
		{3, 2, 0},
		{4, 3, 1},
		{7, 5, 1},
		{8, 6, 2},
	} {
		l := NewLadder(3, tc.depth)
		l.Enqueued(tc.down - 1)
		if l.Tier() != 0 {
			t.Fatalf("depth %d: stepped down at queue length %d, want %d", tc.depth, tc.down-1, tc.down)
		}
		l.Enqueued(tc.down)
		if l.Tier() != 1 || l.StepDowns() != 1 {
			t.Fatalf("depth %d: tier %d after queue length %d, want 1", tc.depth, l.Tier(), tc.down)
		}
		// Above the calm length every observation breaks the streak.
		for i := 0; i < 2*ladderHysteresis; i++ {
			l.Observe(tc.calm + 1)
		}
		if l.Tier() != 1 {
			t.Fatalf("depth %d: stepped up at queue length %d, want calm only at <= %d", tc.depth, tc.calm+1, tc.calm)
		}
		// A streak interrupted one short of the hysteresis starts over.
		for i := 0; i < ladderHysteresis-1; i++ {
			l.Observe(tc.calm)
		}
		l.Observe(tc.calm + 1)
		for i := 0; i < ladderHysteresis-1; i++ {
			l.Observe(tc.calm)
		}
		if l.Tier() != 1 {
			t.Fatalf("depth %d: interrupted calm streak stepped up", tc.depth)
		}
		l.Observe(tc.calm)
		if l.Tier() != 0 || l.StepUps() != 1 {
			t.Fatalf("depth %d: tier %d step-ups %d after %d calm observations, want 0/1",
				tc.depth, l.Tier(), l.StepUps(), ladderHysteresis)
		}
	}
}

// TestLadderClampsAtTheEnds: a ladder never steps below its deepest rung or
// above full fidelity, and a single-rung ladder never moves.
func TestLadderClampsAtTheEnds(t *testing.T) {
	l := NewLadder(2, 4)
	for i := 0; i < 3; i++ {
		l.Enqueued(4)
	}
	if l.Tier() != 1 || l.StepDowns() != 1 {
		t.Fatalf("tier %d step-downs %d, want 1/1 on a two-rung ladder", l.Tier(), l.StepDowns())
	}
	for i := 0; i < 3*ladderHysteresis; i++ {
		l.Observe(0)
	}
	if l.Tier() != 0 || l.StepUps() != 1 {
		t.Fatalf("tier %d step-ups %d, want 0/1", l.Tier(), l.StepUps())
	}
	one := NewLadder(1, 4)
	one.Enqueued(4)
	if one.Tier() != 0 || one.StepDowns() != 0 {
		t.Fatal("single-rung ladder stepped down")
	}
}

// TestRetryPolicyNext pins the retry decision: transient classes only, the
// attempt cap, and the jittered backoff against the remaining deadline
// budget.
func TestRetryPolicyNext(t *testing.T) {
	p := RetryPolicy{Max: 2, BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond}
	now := time.Unix(100, 0)
	for _, err := range []error{ErrPanic, ErrStalled, ErrQueueFull} {
		d, ok := p.Next(err, 0, 7, now, time.Time{})
		if !ok || d < 5*time.Millisecond || d >= 10*time.Millisecond {
			t.Fatalf("%v: first retry (%v, %v), want a backoff in [5ms, 10ms)", err, d, ok)
		}
		if d2, ok := p.Next(err, 1, 7, now, time.Time{}); !ok || d2 < 10*time.Millisecond || d2 >= 20*time.Millisecond {
			t.Fatalf("%v: second retry (%v, %v), want a doubled backoff in [10ms, 20ms)", err, d2, ok)
		}
		if _, ok := p.Next(err, 2, 7, now, time.Time{}); ok {
			t.Fatalf("%v: retried past Max", err)
		}
	}
	for _, err := range []error{ErrInvalidInput, ErrDeadline, ErrShed, ErrThrottled, ErrClosed, errors.New("other")} {
		if _, ok := p.Next(err, 0, 7, now, time.Time{}); ok {
			t.Fatalf("%v: terminal error retried", err)
		}
	}
	d, _ := p.Next(ErrPanic, 0, 7, now, time.Time{})
	if _, ok := p.Next(ErrPanic, 0, 7, now, now.Add(d)); ok {
		t.Fatal("retried with a backoff that reaches the deadline")
	}
	if got, ok := p.Next(ErrPanic, 0, 7, now, now.Add(d+1)); !ok || got != d {
		t.Fatalf("budget one tick past the backoff: (%v, %v), want (%v, true)", got, ok, d)
	}
}

// TestHedgePolicyAllow pins the hedge gate: the MaxFraction budget over
// offered requests (defaulted when unset) and the disengage at any shed
// level.
func TestHedgePolicyAllow(t *testing.T) {
	for _, tc := range []struct {
		p               HedgePolicy
		shed            int
		hedges, offered uint64
		want            bool
	}{
		{HedgePolicy{}, 0, 0, 19, false}, // default 0.05: 1 > 0.95
		{HedgePolicy{}, 0, 0, 20, true},
		{HedgePolicy{}, 0, 1, 39, false},
		{HedgePolicy{}, 1, 0, 1000, false},
		{HedgePolicy{MaxFraction: 1}, 0, 4, 5, true},
		{HedgePolicy{MaxFraction: 1}, 0, 5, 5, false},
		{HedgePolicy{MaxFraction: 7}, 0, 5, 5, false}, // clamped to 1
		{HedgePolicy{MaxFraction: 1}, 2, 0, 5, false},
	} {
		if got := tc.p.Allow(tc.shed, tc.hedges, tc.offered); got != tc.want {
			t.Fatalf("%+v.Allow(shed %d, hedges %d, offered %d) = %v, want %v",
				tc.p, tc.shed, tc.hedges, tc.offered, got, tc.want)
		}
	}
}
