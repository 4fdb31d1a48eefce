package serve

import "sync/atomic"

// The degradation ladder's thresholds (DESIGN.md §11): step down at 0.75
// queue fill, count an observation calm at or below a third of that, step
// back up after 4 consecutive calm observations. The shed controller's
// default onset (0.55) sits below ladderHigh so the fleet sheds low-priority
// work before any engine cheapens high-priority work.
const (
	ladderHigh       = 0.75
	ladderLow        = ladderHigh / 3
	ladderHysteresis = 4
)

// Ladder is the degradation ladder's state machine: the tier an engine
// serves at, stepped down on queue pressure and back up with hysteresis.
// Like ShedController it has no clock and no goroutines, so the Engine and
// the loadgen simulator drive the same code. Safe for concurrent use: the
// CAS on every tier move keeps concurrent observers from double-stepping
// past the pressure they jointly saw.
type Ladder struct {
	top   int32 // deepest tier
	highN int   // queue length that steps down
	lowN  int   // queue length at or below which an observation is calm

	tier      atomic.Int32
	calm      atomic.Int32 // consecutive calm observations
	stepDowns atomic.Uint64
	stepUps   atomic.Uint64
}

// NewLadder builds a ladder over tiers rungs (tier 0 is full fidelity) for
// a queue of the given depth. The watermarks become whole queue lengths
// once, here: step down at round(0.75·depth) queued frames (at least 1),
// count calm at or below ⌊0.25·depth⌋.
func NewLadder(tiers, depth int) *Ladder {
	highN := int(ladderHigh*float64(depth) + 0.5)
	if highN < 1 {
		highN = 1
	}
	return &Ladder{top: int32(tiers - 1), highN: highN, lowN: int(ladderLow * float64(depth))}
}

// Enqueued observes the queue length right after a successful enqueue: at
// or past the high watermark the ladder steps one tier down, so workers
// drain faster before the next submitter hits a full queue.
func (l *Ladder) Enqueued(queued int) {
	if queued < l.highN {
		return
	}
	t := l.tier.Load()
	if t >= l.top {
		return
	}
	if l.tier.CompareAndSwap(t, t+1) {
		l.stepDowns.Add(1)
		l.calm.Store(0)
	}
}

// Observe feeds the queue length after a unit of work drains (an engine
// batch, a simulated frame): ladderHysteresis consecutive calm observations
// step one tier back up. The watermark gap plus the streak keep the ladder
// from oscillating when load hovers at a watermark.
func (l *Ladder) Observe(queued int) {
	if queued > l.lowN {
		l.calm.Store(0)
		return
	}
	t := l.tier.Load()
	if t == 0 {
		return
	}
	if int(l.calm.Add(1)) < ladderHysteresis {
		return
	}
	if l.tier.CompareAndSwap(t, t-1) {
		l.stepUps.Add(1)
	}
	l.calm.Store(0)
}

// Tier is the current rung, in [0, tiers).
func (l *Ladder) Tier() int { return int(l.tier.Load()) }

// StepDowns counts step-down events.
func (l *Ladder) StepDowns() uint64 { return l.stepDowns.Load() }

// StepUps counts step-up (recovery) events.
func (l *Ladder) StepUps() uint64 { return l.stepUps.Load() }
