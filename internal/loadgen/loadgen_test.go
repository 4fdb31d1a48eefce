package loadgen

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Harness tests: bit-exact determinism, the accounting conservation laws,
// sampler statistics, ramp evaluation, and the spec parser's typed errors.
// Everything runs in virtual time — no sleeps, no wall-clock dependence.

func TestRunDeterminism(t *testing.T) {
	spec := Quick()
	for _, mult := range []float64{1, 10, 100} {
		a, err := Run(spec, mult)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(spec, mult)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("mult %g: two same-seed runs disagree:\n%+v\n%+v", mult, a.Counts, b.Counts)
		}
	}
	// A different seed must actually change the run (the seed is wired in).
	other := spec
	other.Seed = spec.Seed + 1
	a, _ := Run(spec, 10)
	b, err := Run(other, 10)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatal("different seeds produced identical counts; seed is not wired through")
	}
}

func TestRunConservationAndClassTotals(t *testing.T) {
	spec := Quick()
	spec.QoSRate = 20 // exercise all three shed causes
	spec.QoSBurst = 5
	spec.Deadline = 2 * time.Millisecond
	spec.StallFrac = 0.1 // and the survivability layer, all recovery paths on
	spec.Retries = 1
	spec.HedgeDelay = time.Millisecond
	for _, mult := range []float64{1, 20} {
		m, err := Run(spec, mult)
		if err != nil {
			t.Fatal(err)
		}
		if m.Offered != m.Admitted+m.Shed() {
			t.Fatalf("mult %g: offered %d != admitted %d + shed %d", mult, m.Offered, m.Admitted, m.Shed())
		}
		if m.Admitted != m.Completed+m.FailedDeadline+m.FailedStall {
			t.Fatalf("mult %g: admitted %d != completed %d + failed %d+%d", mult, m.Admitted, m.Completed, m.FailedDeadline, m.FailedStall)
		}
		var offered, completed, shed, failed, degraded uint64
		for _, c := range m.Classes {
			offered += c.Offered
			completed += c.Completed
			shed += c.Shed
			failed += c.Failed
		}
		for _, n := range m.Degraded {
			degraded += n
		}
		if offered != m.Offered || completed != m.Completed || shed != m.Shed() || failed != m.FailedDeadline+m.FailedStall {
			t.Fatalf("mult %g: class totals (%d/%d/%d/%d) disagree with aggregates (%d/%d/%d/%d)",
				mult, offered, completed, shed, failed, m.Offered, m.Completed, m.Shed(), m.FailedDeadline+m.FailedStall)
		}
		if degraded != m.Completed {
			t.Fatalf("mult %g: per-tier completions %d != completed %d", mult, degraded, m.Completed)
		}
		if m.FairnessJain < 0 || m.FairnessJain > 1+1e-9 {
			t.Fatalf("mult %g: fairness %f out of [0,1]", mult, m.FairnessJain)
		}
	}
}

func TestRunOverloadBehaviour(t *testing.T) {
	spec := Quick()
	base, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	over, err := Run(spec, 50)
	if err != nil {
		t.Fatal(err)
	}
	if over.Offered <= 10*base.Offered {
		t.Fatalf("50x offered %d not ~50x of 1x offered %d", over.Offered, base.Offered)
	}
	sf := func(m Metrics) float64 { return float64(m.Counts.Shed()) / float64(m.Offered) }
	if sf(over) <= sf(base) {
		t.Fatalf("shed fraction did not grow under overload: %f -> %f", sf(base), sf(over))
	}
	if over.FullFidelityFrac >= 1 {
		t.Fatal("50x overload never degraded a frame; ladder is not wired")
	}
	if over.ShedLevelMax == 0 {
		t.Fatal("50x overload never raised the shed level")
	}
	// The shed controller never sheds the high class: every shed high frame
	// must come from token buckets or full queues, which are priority-blind.
	high := over.Classes[0]
	if high.Priority != "high" {
		t.Fatalf("class order: %q first, want high", high.Priority)
	}
	if high.Shed > over.ShedThrottled+over.ShedQueueFull {
		t.Fatalf("high class shed %d exceeds priority-blind causes %d+%d: overload shed hit the top class",
			high.Shed, over.ShedThrottled, over.ShedQueueFull)
	}
}

func TestRunDeadlineAccounting(t *testing.T) {
	spec := Quick()
	spec.Queue = 64 // deep queues: long waits instead of queue sheds
	spec.Deadline = time.Millisecond
	m, err := Run(spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	if m.FailedDeadline == 0 {
		t.Fatal("deep queues at 20x with a 1ms deadline dropped nothing")
	}
	if m.Admitted != m.Completed+m.FailedDeadline {
		t.Fatalf("admitted %d != completed %d + deadline-failed %d", m.Admitted, m.Completed, m.FailedDeadline)
	}
}

func TestRunQoSThrottles(t *testing.T) {
	spec := Quick()
	spec.QoSRate = 10
	spec.QoSBurst = 2
	m, err := Run(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.ShedThrottled == 0 {
		t.Fatal("zipf-skewed 10x load against 10fps tenant buckets throttled nothing")
	}
}

// A stall storm with no recovery policy: every stalled frame terminally
// fails, the counters stay conserved, and two same-seed runs agree bit for
// bit. Survivability counters must stay zero when StallFrac is zero — even
// with retries/hedging configured — so plain runs are unchanged.
func TestRunStallStormConservation(t *testing.T) {
	spec := Quick()
	spec.StallFrac = 0.1
	for _, mult := range []float64{1, 10} {
		m, err := Run(spec, mult)
		if err != nil {
			t.Fatal(err)
		}
		if m.Stalled == 0 {
			t.Fatalf("mult %g: 10%% stall injection stalled nothing", mult)
		}
		if m.FailedStall == 0 {
			t.Fatalf("mult %g: stalls with no recovery policy failed nothing", mult)
		}
		if m.Admitted != m.Completed+m.FailedDeadline+m.FailedStall {
			t.Fatalf("mult %g: admitted %d != completed %d + failed %d+%d",
				mult, m.Admitted, m.Completed, m.FailedDeadline, m.FailedStall)
		}
		again, err := Run(spec, mult)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Counts, again.Counts) {
			t.Fatalf("mult %g: stall-storm runs not reproducible:\n%+v\n%+v", mult, m.Counts, again.Counts)
		}
	}

	off := Quick()
	off.Retries = 2
	off.HedgeDelay = time.Millisecond
	m, err := Run(off, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stalled+m.FailedStall+m.Retried+m.Hedged+m.HedgeWins != 0 {
		t.Fatalf("StallFrac=0 run has survivability counters: %+v", m.Counts)
	}
}

// Retries buy goodput back: re-dispatching stalled frames on the next ring
// candidate must recover most of what the storm killed.
func TestRunRetriesRecoverStalledFrames(t *testing.T) {
	spec := Quick()
	spec.StallFrac = 0.1
	spec.StallTimeout = spec.SvcTiers[0] // snappy watchdog: recovery signal, not wedge cost
	none, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Retries = 2
	retry, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Retried == 0 {
		t.Fatal("retry policy never retried a stalled frame")
	}
	if retry.FailedStall >= none.FailedStall {
		t.Fatalf("retries did not reduce stall failures: %d -> %d", none.FailedStall, retry.FailedStall)
	}
	if retry.Completed <= none.Completed {
		t.Fatalf("retries did not buy goodput: completed %d -> %d", none.Completed, retry.Completed)
	}
}

// The retry path is deadline-budget-aware: with every attempt stalling and
// the second watchdog firing past the deadline, each frame retries at most
// once and nothing completes.
func TestRunRetryRespectsDeadlineBudget(t *testing.T) {
	spec := Quick()
	spec.StallFrac = 1
	spec.Retries = 8
	spec.StallTimeout = 2 * time.Millisecond
	spec.Deadline = 3 * time.Millisecond
	m, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 0 {
		t.Fatalf("every attempt stalls, yet %d frames completed", m.Completed)
	}
	if m.Retried == 0 {
		t.Fatal("first watchdog fires inside the budget, yet nothing retried")
	}
	if m.Retried > m.Admitted {
		t.Fatalf("retried %d > admitted %d: budget did not stop the second retry", m.Retried, m.Admitted)
	}
}

// Hedging wins races against wedged workers, never exceeds its launch
// budget, and hedge wins never exceed hedges launched. Hedges disengage
// while the fleet sheds, so the goodput claim is checked at a load (¼ of
// capacity) where the shed controller never engages.
func TestRunHedgingWinsRaces(t *testing.T) {
	const mult = 0.25
	spec := Quick()
	spec.StallFrac = 0.1
	none, err := Run(spec, mult)
	if err != nil {
		t.Fatal(err)
	}
	spec.HedgeDelay = time.Millisecond
	spec.HedgeBudget = 1
	m, err := Run(spec, mult)
	if err != nil {
		t.Fatal(err)
	}
	if none.ShedRaises+m.ShedRaises != 0 {
		t.Fatalf("shed controller engaged at %g× (%d/%d raises); the goodput check needs it off", mult, none.ShedRaises, m.ShedRaises)
	}
	if m.Hedged == 0 || m.HedgeWins == 0 {
		t.Fatalf("hedging launched %d won %d; expected both > 0", m.Hedged, m.HedgeWins)
	}
	if m.HedgeWins > m.Hedged {
		t.Fatalf("hedge wins %d > hedges %d", m.HedgeWins, m.Hedged)
	}
	if m.Completed <= none.Completed {
		t.Fatalf("hedging did not buy goodput: completed %d -> %d", none.Completed, m.Completed)
	}
	capped := spec
	capped.HedgeBudget = 0.01
	c, err := Run(capped, mult)
	if err != nil {
		t.Fatal(err)
	}
	if float64(c.Hedged) > 0.01*float64(c.Offered)+1 {
		t.Fatalf("hedge budget 1%% of %d offered exceeded: %d hedges", c.Offered, c.Hedged)
	}
}

// The hedge gate is serve.HedgePolicy.Allow: no hedge launches while the
// shed controller is engaged. The quick survivability retry2+hedge spec at
// 10× sheds for most of the run, so many hedge points fire while shedding;
// every one of them must be refused.
func TestSimLaunchesNoHedgeWhileShedding(t *testing.T) {
	spec := Quick()
	spec.StallFrac = 0.1
	spec.StallTimeout = spec.SvcTiers[0]
	spec.Retries = 2
	spec.HedgeDelay = 2 * spec.SvcTiers[0]
	spec.HedgeBudget = 0.1
	s, err := newSim(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	s.scheduleArrival()
	refused := 0
	for len(s.events) > 0 {
		// Only arrivals move the shed level, so the level seen here is the
		// one a hedge event at the heap top is gated on.
		gated := s.events[0].kind == evHedge && s.shed.Level() > 0
		before := s.counts.Hedged
		s.step()
		if gated {
			if s.counts.Hedged != before {
				t.Fatalf("hedge launched at %v while the shed controller was at level %d", time.Duration(s.now), s.shed.Level())
			}
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no hedge point fired while shedding; the check exercised nothing")
	}
}

func TestRampShapesArrivals(t *testing.T) {
	spec := Quick()
	spec.Ramp = []RampPoint{{At: 0, Mult: 0.1}, {At: 1, Mult: 0.1}}
	low, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Run(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A flat 0.1× schedule should cut arrivals by roughly 10×.
	if low.Offered >= flat.Offered/2 {
		t.Fatalf("0.1x ramp offered %d vs flat %d; schedule not applied", low.Offered, flat.Offered)
	}

	s, err := newSim(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.rampMult(0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("rampMult(0) = %g, want 0.1", got)
	}
	s.spec.Ramp = []RampPoint{{At: 0, Mult: 1}, {At: 0.5, Mult: 3}, {At: 1, Mult: 1}}
	mid := s.rampMult(s.durNs / 4) // halfway up the first segment: 2.0
	if math.Abs(mid-2) > 1e-9 {
		t.Fatalf("rampMult(quarter) = %g, want 2 (linear interpolation)", mid)
	}
	if got := s.rampMult(s.durNs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rampMult(end) = %g, want 1", got)
	}
	// Zero-rate segments clamp instead of stalling the arrival chain.
	s.spec.Ramp = []RampPoint{{At: 0, Mult: 0}, {At: 1, Mult: 0}}
	if got := s.rampMult(0); got <= 0 {
		t.Fatalf("rampMult clamp = %g, want > 0", got)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.2)
	rng := NewRNG(42)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Pick(rng.Float64())]++
	}
	if !(counts[0] > counts[9] && counts[9] > counts[49]) {
		t.Fatalf("zipf ranks not ordered: c0=%d c9=%d c49=%d", counts[0], counts[9], counts[49])
	}
	if counts[0] < 5*counts[49] {
		t.Fatalf("zipf skew too weak: c0=%d c49=%d", counts[0], counts[49])
	}
	// s = 0 degenerates to uniform: head and tail within 2x.
	u := NewZipf(10, 0)
	uc := make([]int, 10)
	for i := 0; i < 100000; i++ {
		uc[u.Pick(rng.Float64())]++
	}
	if uc[0] > 2*uc[9] {
		t.Fatalf("uniform zipf skewed: %v", uc)
	}
}

func TestParetoMean(t *testing.T) {
	// With alpha = 3 the variance is finite, so 200k draws pin the sample
	// mean tightly. ParetoXm is defined to make the mean exactly 1/rate.
	const rate, alpha = 1000.0, 3.0
	rng := NewRNG(7)
	xm := ParetoXm(alpha, rate)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := rng.Pareto(alpha, xm)
		if d < xm {
			t.Fatalf("draw %g below scale %g", d, xm)
		}
		sum += d
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.1/rate {
		t.Fatalf("sample mean %g, want 1/rate = %g within 10%%", mean, 1/rate)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNG streams diverge")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produce equal first draw")
	}
}

func TestParseSpecTable(t *testing.T) {
	good, err := ParseSpec("seed=9;engines=8;workers=4;rate=500;alpha=2;zipf=0.9;mix=0.1,0.6,0.3;svc=2ms,1ms;ramp=0:1,1:2;deadline=5ms;stall-frac=0.1;stall-timeout=3ms;retries=2;hedge-delay=1ms;hedge-budget=0.2", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if good.Seed != 9 || good.Engines != 8 || good.Workers != 4 || good.Rate != 500 ||
		len(good.SvcTiers) != 2 || good.SvcTiers[1] != time.Millisecond ||
		len(good.Ramp) != 2 || good.Deadline != 5*time.Millisecond ||
		good.StallFrac != 0.1 || good.StallTimeout != 3*time.Millisecond ||
		good.Retries != 2 || good.HedgeDelay != time.Millisecond || good.HedgeBudget != 0.2 {
		t.Fatalf("parsed spec wrong: %+v", good)
	}
	if got, _ := ParseSpec("", Quick()); !reflect.DeepEqual(got, Quick()) {
		t.Fatal("empty override changed the base spec")
	}

	bad := []struct{ in, field string }{
		{"bogus=1", "bogus"},
		{"seed", "spec"}, // missing '=': the pair itself is the offender
		{"seed=x", "seed"},
		{"engines=0", "engines"},
		{"engines=9999", "engines"},
		{"rate=NaN", "rate"},
		{"rate=+Inf", "rate"},
		{"alpha=1", "alpha"},
		{"mix=1,2", "mix"},
		{"mix=-1,1,1", "mix"},
		{"svc=", "svc"},
		{"svc=2ms,nope", "svc"},
		{"ramp=5", "ramp"},
		{"ramp=0.9:1,0.1:1", "ramp"},
		{"duration=-1s", "duration"},
		{"duration=2h", "duration"},
		{"zipf=99", "zipf"},
		{"shed-high=2", "shed-high"},
		{"rate=1e7;duration=1h", "rate"}, // > 5e7 arrivals
		{"stall-frac=2", "stall-frac"},
		{"stall-frac=NaN", "stall-frac"},
		{"stall-timeout=-1ms", "stall-timeout"},
		{"retries=9", "retries"},
		{"hedge-delay=2h", "hedge-delay"},
		{"hedge-budget=-0.1", "hedge-budget"},
	}
	for _, tc := range bad {
		_, err := ParseSpec(tc.in, Quick())
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("%q: err = %v, want *SpecError", tc.in, err)
		}
		if se.Field != tc.field {
			t.Fatalf("%q: field = %q, want %q", tc.in, se.Field, tc.field)
		}
		if !strings.Contains(se.Error(), tc.field) {
			t.Fatalf("%q: message %q does not name the field", tc.in, se.Error())
		}
	}
}

func TestParseMults(t *testing.T) {
	got, err := ParseMults(" 1, 10 ,100 ")
	if err != nil || !reflect.DeepEqual(got, []float64{1, 10, 100}) {
		t.Fatalf("got %v err %v", got, err)
	}
	for _, in := range []string{"", "0", "-1", "x", "1e9", "NaN"} {
		var se *SpecError
		if _, err := ParseMults(in); !errors.As(err, &se) {
			t.Fatalf("%q: err = %v, want *SpecError", in, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var se *SpecError
	if _, err := Run(Spec{}, 1); !errors.As(err, &se) {
		t.Fatalf("zero spec: %v, want *SpecError", err)
	}
	if _, err := Run(Quick(), 0); !errors.As(err, &se) {
		t.Fatalf("mult 0: %v, want *SpecError", err)
	}
	if _, err := Run(Quick(), math.NaN()); !errors.As(err, &se) {
		t.Fatalf("mult NaN: %v, want *SpecError", err)
	}
}

func TestBuildReport(t *testing.T) {
	spec := Quick()
	rep, err := BuildReport(spec, []float64{1, 10}, []float64{1, 2, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bench != "serve_fleet" {
		t.Fatalf("bench tag %q", rep.Bench)
	}
	if len(rep.Scenarios) != 2 || len(rep.Crossover) != 3 {
		t.Fatalf("sections: %d scenarios %d crossover", len(rep.Scenarios), len(rep.Crossover))
	}
	if !rep.Spec.RateAuto || rep.Spec.RateFPS <= 0 {
		t.Fatalf("spec summary rate: %+v", rep.Spec)
	}
	for _, p := range rep.Crossover {
		if p.ShedFrac < 0 || p.ShedFrac > 1 || p.DegradedFrac < 0 || p.DegradedFrac > 1 {
			t.Fatalf("crossover fractions out of range: %+v", p)
		}
	}
	// The crossover and grid sections agree where they overlap (same seed,
	// same semantics).
	if rep.Crossover[0].GoodputFPS != rep.Scenarios[0].GoodputFPS {
		t.Fatal("crossover and grid disagree at mult 1")
	}
	// The survivability sweep: one row per (multiplier, policy), retries
	// buying goodput back at every multiplier. Hedges disengage while the
	// fleet sheds, which the quick fleet does throughout at 10×, so only the
	// 1× row must launch any.
	if len(rep.Survivability) != 2*3 {
		t.Fatalf("survivability rows: %d, want 6", len(rep.Survivability))
	}
	for i := 0; i < len(rep.Survivability); i += 3 {
		none, retry, hedge := rep.Survivability[i], rep.Survivability[i+1], rep.Survivability[i+2]
		if none.Policy != "none" || retry.Policy != "retry2" || hedge.Policy != "retry2+hedge" {
			t.Fatalf("policy order at %d: %s/%s/%s", i, none.Policy, retry.Policy, hedge.Policy)
		}
		if none.Stalled == 0 || none.FailedStall == 0 {
			t.Fatalf("storm row stalled nothing: %+v", none)
		}
		if retry.Retried == 0 || retry.GoodFrac <= none.GoodFrac {
			t.Fatalf("retry policy bought no goodput: none %.4f retry %.4f (%d retried)",
				none.GoodFrac, retry.GoodFrac, retry.Retried)
		}
		if hedge.Mult == 1 && hedge.Hedged == 0 {
			t.Fatalf("hedge policy launched no hedges: %+v", hedge)
		}
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"bench": "serve_fleet"`, `"crossover"`, `"scenarios"`, `"p99_ms"`, `"fairness_jain"`, `"survivability"`, `"hedge_wins"`} {
		if !strings.Contains(sb.String(), key) {
			t.Fatalf("report JSON missing %s", key)
		}
	}
	// Count lines are stable across same-seed rebuilds — the CI determinism
	// contract.
	rep2, err := BuildReport(spec, []float64{1, 10}, []float64{1, 2, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Scenarios {
		if CountLine(rep.Scenarios[i]) != CountLine(rep2.Scenarios[i]) {
			t.Fatalf("count line %d not reproducible", i)
		}
	}
	for i := range rep.Survivability {
		if SurvLine(rep.Survivability[i]) != SurvLine(rep2.Survivability[i]) {
			t.Fatalf("survivability line %d not reproducible", i)
		}
	}
}
