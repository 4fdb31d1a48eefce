package loadgen

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// The discrete-event simulator. One goroutine, virtual nanosecond clock,
// binary event heap with (time, sequence) ordering — every tie breaks the
// same way on every run. Every policy decision is serve's own code: the
// consistent-hash Ring, token-bucket QoS (on the virtual clock) and
// ShedController decide admit/shed, each simulated engine's serve.Ladder
// decides its tier, serve.HedgePolicy.Allow gates hedges and
// serve.RetryPolicy.Next decides retries and their backoff. Only frame
// *execution* is modelled: a bounded reject-don't-block queue, Workers
// service slots, and a per-tier service time drawn from calibration or the
// spec.
//
// With StallFrac > 0 the survivability layer engages (DESIGN.md §15): a
// seeded per-dispatch draw wedges the attempt's worker until the modelled
// stall watchdog reclaims it at StallTimeout; a stalled primary is then
// retried on the next ring candidate after the policy's backoff, and
// optionally hedged — a duplicate attempt launched HedgeDelay after the
// primary stalls, first completion wins, the loser is cancelled at pickup
// or completes without counting. The stall draw is a pure hash of (seed,
// attempt ordinal), never the arrival RNG, so StallFrac = 0 runs are
// bit-identical to the plain model.

// event kinds.
const (
	evArrival = iota
	evComplete
	evStallFree // watchdog reclaims a stalled attempt's worker
	evHedge     // hedge launch point for a stalled frame
	evRetry     // a stalled frame's retry backoff ends
)

// event is one heap entry. Completion events carry the frame's provenance;
// survivability events additionally carry the frame id and whether the
// attempt was a hedge.
type event struct {
	at     int64 // virtual ns
	seq    uint64
	kind   uint8
	prio   uint8
	tier   int16
	eng    int32
	tenant int32
	arr    int64  // arrival time of the completing frame
	fid    uint64 // frame id; 0 when the survivability layer is off
	hedge  bool   // this attempt is the frame's hedge
}

// eventHeap is a binary min-heap over (at, seq).
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(old[l], old[small]) {
			small = l
		}
		if r < n && eventLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// qItem is one queued attempt in a simulated engine.
type qItem struct {
	arr    int64
	tenant int32
	prio   uint8
	fid    uint64 // frame id; 0 when the survivability layer is off
	hedge  bool
}

// frameState tracks one admitted frame's attempts while the survivability
// layer is on: the primary dispatch plus any retries and the optional hedge
// all point back here, so the first completion wins exactly once and a
// frame terminally fails only when its last in-flight attempt resolves.
type frameState struct {
	arr     int64
	h       uint64 // route hash; retry/hedge candidates recomputed from it
	tenant  int32
	prio    uint8
	candIdx int // next ring candidate for a retry or hedge dispatch
	retries int
	pending int // attempts queued or in service
	done    bool
	hedged  bool
}

// simEngine models one serve.Engine: a bounded FIFO (reject-don't-block),
// Workers service slots, and the engine's own degradation Ladder.
type simEngine struct {
	q       []qItem // circular buffer of capacity depth
	head, n int
	depth   int
	free    int // idle workers
	ladder  *serve.Ladder
}

func (e *simEngine) fill() float64 { return float64(e.n) / float64(e.depth) }

// push enqueues one attempt and lets the ladder see the new queue length,
// as Engine.Submit does after every successful enqueue.
func (e *simEngine) push(it qItem) {
	e.q[(e.head+e.n)%e.depth] = it
	e.n++
	e.ladder.Enqueued(e.n)
}

func (e *simEngine) popq() qItem {
	it := e.q[e.head]
	e.head = (e.head + 1) % e.depth
	e.n--
	return it
}

// Counts are the exact, reproducibility-bearing outcome counters: same
// (spec, seed, mult) ⇒ identical Counts, bit for bit.
type Counts struct {
	Offered        uint64   `json:"offered"`
	Admitted       uint64   `json:"admitted"`
	Completed      uint64   `json:"completed"`
	ShedThrottled  uint64   `json:"shed_throttle"`
	ShedOverload   uint64   `json:"shed_overload"`
	ShedQueueFull  uint64   `json:"shed_queue"`
	FailedDeadline uint64   `json:"failed_deadline"`
	FailedStall    uint64   `json:"failed_stall"` // stalled with retries/hedge exhausted
	Stalled        uint64   `json:"stalled"`      // attempts wedged until the watchdog reclaimed them
	Retried        uint64   `json:"retried"`      // re-dispatches of stalled frames (attempts, not offers)
	Hedged         uint64   `json:"hedged"`       // hedge attempts launched
	HedgeWins      uint64   `json:"hedge_wins"`   // frames whose hedge completed first
	Degraded       []uint64 `json:"degraded"`     // completed per tier; [0] is full fidelity
	StepDowns      uint64   `json:"step_downs"`
	StepUps        uint64   `json:"step_ups"`
	ShedRaises     uint64   `json:"shed_raises"`
	ShedDrops      uint64   `json:"shed_drops"`
	ShedLevelMax   int      `json:"shed_level_max"`
}

// Shed sums the three shed classes.
func (c *Counts) Shed() uint64 { return c.ShedThrottled + c.ShedOverload + c.ShedQueueFull }

// ClassMetrics summarizes one priority class.
type ClassMetrics struct {
	Priority  string  `json:"priority"`
	Offered   uint64  `json:"offered"`
	Completed uint64  `json:"completed"`
	Shed      uint64  `json:"shed"`
	Failed    uint64  `json:"failed"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// Metrics is one scenario's full result.
type Metrics struct {
	Counts
	P50              time.Duration  `json:"-"`
	P99              time.Duration  `json:"-"`
	Mean             time.Duration  `json:"-"`
	Max              time.Duration  `json:"-"`
	P50Ms            float64        `json:"p50_ms"`
	P99Ms            float64        `json:"p99_ms"`
	MeanMs           float64        `json:"mean_ms"`
	MaxMs            float64        `json:"max_ms"`
	OfferedFPS       float64        `json:"offered_fps"`
	GoodputFPS       float64        `json:"goodput_fps"`
	FullFidelityFrac float64        `json:"full_fidelity_frac"`
	FairnessJain     float64        `json:"fairness_jain"`
	Classes          []ClassMetrics `json:"classes"`
}

// sim is one scenario run's state.
type sim struct {
	spec    Spec
	rng     *RNG
	now     int64
	durNs   int64
	seq     uint64
	events  eventHeap
	engines []simEngine
	ring    *serve.Ring
	shed    *serve.ShedController
	qos     *serve.QoS
	names   []string
	prio    []serve.Priority
	zipf    *Zipf
	cand    []int

	// Survivability state (nil/zero unless StallFrac > 0).
	surv       bool
	frames     map[uint64]*frameState
	nextFid    uint64
	attemptSeq uint64             // ordinal feeding the pure-hash stall draw
	stallNs    int64              // resolved watchdog reclaim delay
	retry      *serve.RetryPolicy // nil: no retries
	hedge      serve.HedgePolicy  // Delay 0: no hedging
	wantCand   int                // ring candidates needed to cover spill + retries + hedge
	cand2      []int              // scratch for retry/hedge candidate recomputation

	rateBase  float64 // spec rate × overload multiplier
	xmCache   float64 // Pareto xm at the current effective rate
	rateCache float64
	alpha     float64

	lat      []int64
	classLat [numPriorities][]int64
	classes  [numPriorities]ClassMetrics
	tOffered []uint32
	tDone    []uint32
	counts   Counts
}

// EffectiveRate is the base arrival rate at multiplier 1: the spec's Rate,
// or the fleet's modelled capacity when Rate is auto.
func (s *Spec) EffectiveRate() float64 {
	if s.Rate > 0 {
		return s.Rate
	}
	return s.capacity()
}

// Run simulates one scenario at the given overload multiplier and returns
// its metrics. The spec is validated first; the conservation laws
// (offered = admitted + shed, admitted = completed + deadline-failed +
// stall-failed, hedge wins ≤ hedges launched) are checked before returning
// and violate loudly, never silently.
func Run(spec Spec, mult float64) (Metrics, error) {
	if err := spec.Validate(); err != nil {
		return Metrics{}, err
	}
	if !(mult > 0) {
		return Metrics{}, specErr("mult", fmt.Sprint(mult), "overload multiplier must be > 0")
	}
	s, err := newSim(spec, mult)
	if err != nil {
		return Metrics{}, err
	}
	return s.run()
}

func newSim(spec Spec, mult float64) (*sim, error) {
	vn := spec.VNodes
	ring, err := serve.NewRing(spec.Engines, vn)
	if err != nil {
		return nil, err
	}
	s := &sim{
		spec:     spec,
		rng:      NewRNG(spec.Seed),
		durNs:    int64(spec.Duration),
		ring:     ring,
		zipf:     NewZipf(spec.Tenants, spec.ZipfS),
		engines:  make([]simEngine, spec.Engines),
		cand:     make([]int, 0, spec.Engines),
		rateBase: spec.EffectiveRate() * mult,
		alpha:    spec.ParetoAlpha,
		prio:     make([]serve.Priority, spec.Tenants),
		tOffered: make([]uint32, spec.Tenants),
		tDone:    make([]uint32, spec.Tenants),
	}
	depth := spec.queueDepth()
	for i := range s.engines {
		s.engines[i] = simEngine{
			q: make([]qItem, depth), depth: depth, free: spec.Workers,
			ladder: serve.NewLadder(len(spec.SvcTiers), depth),
		}
	}
	s.shed = serve.NewShedController(serve.ShedConfig{
		HighWatermark: spec.ShedHigh,
		LowWatermark:  spec.ShedLow,
		Hysteresis:    spec.ShedHyst,
	})
	// Priority classes: each tenant draws its class from the mix by a pure
	// hash of (seed, tenant) — stable across scenarios of one spec.
	var cum [numPriorities]float64
	var total float64
	for _, m := range spec.Mix {
		total += m
	}
	acc := 0.0
	for i, m := range spec.Mix {
		acc += m / total
		cum[i] = acc
	}
	for t := range s.prio {
		u := float64(hash64(spec.Seed^0x70726f9e3779b9^uint64(t))>>11) * (1.0 / (1 << 53))
		s.prio[t] = serve.PriorityLow
		for c := 0; c < numPriorities; c++ {
			if u < cum[c] {
				s.prio[t] = serve.Priority(c)
				break
			}
		}
	}
	for c := range s.classes {
		s.classes[c].Priority = serve.Priority(c).String()
	}
	// Per-tenant token buckets: the real serve.QoS on the virtual clock.
	if spec.QoSRate > 0 {
		s.names = make([]string, spec.Tenants)
		limits := make(map[string]serve.TenantLimit, spec.Tenants)
		for t := range s.names {
			s.names[t] = fmt.Sprintf("t%d", t)
			limits[s.names[t]] = serve.TenantLimit{Rate: spec.QoSRate, Burst: spec.QoSBurst, Priority: s.prio[t]}
		}
		s.qos = serve.NewQoS(serve.QoSConfig{
			Default: serve.TenantLimit{Rate: spec.QoSRate, Burst: spec.QoSBurst},
			Tenants: limits,
			Clock:   func() time.Time { return time.Unix(0, s.now) },
		})
	}
	s.counts.Degraded = make([]uint64, len(spec.SvcTiers))
	// Survivability layer: engages only when stalls are actually injected, so
	// StallFrac = 0 runs stay bit-identical to the plain model.
	s.surv = spec.StallFrac > 0
	if s.surv {
		s.frames = make(map[uint64]*frameState)
		s.stallNs = int64(spec.StallTimeout)
		if s.stallNs <= 0 {
			s.stallNs = 4 * int64(spec.SvcTiers[0])
		}
		if spec.Retries > 0 {
			s.retry = &serve.RetryPolicy{Max: spec.Retries, Seed: spec.Seed}
		}
		s.hedge = serve.HedgePolicy{Delay: spec.HedgeDelay, MaxFraction: spec.HedgeBudget}
		s.wantCand = 1 + spec.Spill + spec.Retries
		if spec.HedgeDelay > 0 {
			s.wantCand++
		}
	}
	return s, nil
}

// hash64 is the SplitMix64 finalizer as a pure hash.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rampMult evaluates the diurnal schedule at virtual time t (piecewise
// linear between breakpoints; flat 1 with no schedule). Clamped to 1e-3 so
// the arrival chain never stalls on a zero-rate segment.
func (s *sim) rampMult(t int64) float64 {
	r := s.spec.Ramp
	m := 1.0
	if len(r) > 0 {
		x := float64(t) / float64(s.durNs)
		switch {
		case x <= r[0].At:
			m = r[0].Mult
		case x >= r[len(r)-1].At:
			m = r[len(r)-1].Mult
		default:
			for i := 1; i < len(r); i++ {
				if x <= r[i].At {
					span := r[i].At - r[i-1].At
					if span <= 0 {
						m = r[i].Mult
					} else {
						f := (x - r[i-1].At) / span
						m = r[i-1].Mult + f*(r[i].Mult-r[i-1].Mult)
					}
					break
				}
			}
		}
	}
	if m < 1e-3 {
		m = 1e-3
	}
	return m
}

// scheduleArrival draws the next Pareto inter-arrival gap at the current
// ramped rate and pushes the arrival if it lands inside the scenario.
func (s *sim) scheduleArrival() {
	rate := s.rateBase * s.rampMult(s.now)
	// Exact equality is the point: this is a memo key (recompute xm only when
	// the ramped rate changes bit-for-bit), not a numeric comparison.
	//edgepc:lint-ignore floateq memo-key comparison, not arithmetic
	if rate != s.rateCache {
		s.rateCache = rate
		s.xmCache = ParetoXm(s.alpha, rate)
	}
	gap := s.rng.Pareto(s.alpha, s.xmCache)
	at := s.now + int64(gap*1e9)
	if at <= s.now {
		at = s.now + 1
	}
	if at > s.durNs {
		return // open-loop stream ends; completions drain
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, kind: evArrival})
}

func (s *sim) fleetFill() float64 {
	var sum float64
	for i := range s.engines {
		sum += s.engines[i].fill()
	}
	return sum / float64(len(s.engines))
}

// arrive processes one arrival: tenant draw, QoS, shed, route, enqueue.
func (s *sim) arrive() {
	tenant := s.zipf.Pick(s.rng.Float64())
	stream := s.rng.IntN(s.spec.Streams)
	s.counts.Offered++
	s.tOffered[tenant]++
	prio := s.prio[tenant]
	if s.qos != nil {
		p, err := s.qos.Admit(s.names[tenant])
		prio = p
		if err != nil {
			s.counts.ShedThrottled++
			s.classes[prio].Offered++
			s.classes[prio].Shed++
			return
		}
	}
	s.classes[prio].Offered++
	s.shed.Observe(s.fleetFill())
	if l := s.shed.Level(); l > s.counts.ShedLevelMax {
		s.counts.ShedLevelMax = l
	}
	if s.shed.Sheds(prio) {
		s.counts.ShedOverload++
		s.classes[prio].Shed++
		return
	}
	h := hash64(hash64(s.spec.Seed^0x726f757465) ^ uint64(tenant)<<10 ^ uint64(stream))
	want := 1 + s.spec.Spill
	if s.surv && s.wantCand > want {
		want = s.wantCand
	}
	s.cand = s.ring.CandidatesHash(h, want, s.cand)
	// Initial admission only spills over the first 1+Spill candidates — the
	// rest of the walk is reserved for retries and hedges, exactly like the
	// router's wider Candidates request.
	adm := s.cand
	if spill := 1 + s.spec.Spill; len(adm) > spill {
		adm = adm[:spill]
	}
	for i, id := range adm {
		e := &s.engines[id]
		if e.n >= e.depth {
			continue
		}
		s.counts.Admitted++
		var fid uint64
		if s.surv {
			s.nextFid++
			fid = s.nextFid
			s.frames[fid] = &frameState{
				arr: s.now, h: h, tenant: int32(tenant), prio: uint8(prio),
				candIdx: i + 1, pending: 1,
			}
		}
		e.push(qItem{arr: s.now, tenant: int32(tenant), prio: uint8(prio), fid: fid})
		s.dispatch(id)
		return
	}
	s.counts.ShedQueueFull++
	s.classes[prio].Shed++
}

// dispatch starts service on engine id while workers are idle and frames
// queued, dropping frames whose deadline passed at pickup as the engine
// does. With the survivability layer on it also draws per-attempt stalls
// and cancels queued losers of already-resolved hedge races.
func (s *sim) dispatch(id int) {
	e := &s.engines[id]
	for e.free > 0 && e.n > 0 {
		it := e.popq()
		if it.fid != 0 {
			if fr := s.frames[it.fid]; fr != nil && fr.done {
				// Loser attempt of a frame another attempt already resolved:
				// the real router cancels it at pickup; drop without service.
				s.resolveAttempt(it.fid, &s.counts.FailedStall)
				e.ladder.Observe(e.n)
				continue
			}
		}
		if s.spec.Deadline > 0 && s.now-it.arr > int64(s.spec.Deadline) {
			if it.fid != 0 {
				s.resolveAttempt(it.fid, &s.counts.FailedDeadline)
			} else {
				s.counts.FailedDeadline++
				s.classes[it.prio].Failed++
			}
			e.ladder.Observe(e.n)
			continue
		}
		e.free--
		if s.surv && s.stallDraw() {
			// Stalled attempt: the worker stays wedged until the modelled
			// watchdog reclaims it at StallTimeout. A stalled primary also
			// arms the frame's hedge launch point.
			s.counts.Stalled++
			s.seq++
			s.events.push(event{
				at: s.now + s.stallNs, seq: s.seq, kind: evStallFree, prio: it.prio,
				eng: int32(id), tenant: it.tenant, arr: it.arr, fid: it.fid, hedge: it.hedge,
			})
			if it.fid != 0 && s.hedge.Delay > 0 && !it.hedge {
				if fr := s.frames[it.fid]; fr != nil && !fr.hedged {
					s.seq++
					s.events.push(event{at: s.now + int64(s.hedge.Delay), seq: s.seq, kind: evHedge, fid: it.fid})
				}
			}
			continue
		}
		tier := e.ladder.Tier()
		s.seq++
		s.events.push(event{
			at: s.now + int64(s.spec.SvcTiers[tier]), seq: s.seq, kind: evComplete, prio: it.prio,
			tier: int16(tier), eng: int32(id), tenant: it.tenant, arr: it.arr,
			fid: it.fid, hedge: it.hedge,
		})
	}
}

// stallDraw decides whether the attempt being dispatched stalls: a pure
// hash of (seed, attempt ordinal), never the arrival RNG, so enabling the
// survivability layer does not perturb the arrival stream.
func (s *sim) stallDraw() bool {
	s.attemptSeq++
	u := float64(hash64(s.spec.Seed^0x7374616c6c21^s.attemptSeq)>>11) * (1.0 / (1 << 53))
	return u < s.spec.StallFrac
}

// resolveAttempt retires one in-flight attempt of frame fid. When the last
// attempt resolves without any attempt having won, the frame terminally
// fails into *failed; resolved frames are dropped from the tracking map.
func (s *sim) resolveAttempt(fid uint64, failed *uint64) {
	fr := s.frames[fid]
	fr.pending--
	if fr.pending > 0 {
		return
	}
	if !fr.done {
		fr.done = true
		*failed++
		s.classes[fr.prio].Failed++
	}
	delete(s.frames, fid)
}

// reenqueue pushes a fresh attempt of fr onto the next ring candidate with
// queue room, wrapping over the candidate walk like the router's
// trySubmitFrom. Returns the target engine (not yet dispatched) or -1 when
// every candidate's queue is full.
func (s *sim) reenqueue(fr *frameState, fid uint64, hedge bool) int {
	s.cand2 = s.ring.CandidatesHash(fr.h, s.wantCand, s.cand2)
	cand := s.cand2
	for i := 0; i < len(cand); i++ {
		j := (fr.candIdx + i) % len(cand)
		e := &s.engines[cand[j]]
		if e.n >= e.depth {
			continue
		}
		fr.candIdx = j + 1
		e.push(qItem{arr: fr.arr, tenant: fr.tenant, prio: fr.prio, fid: fid, hedge: hedge})
		return cand[j]
	}
	return -1
}

// stallFree is the modelled watchdog firing: the wedged worker comes back,
// and a stalled primary either schedules its retry after the backoff
// serve.RetryPolicy.Next decides on the virtual clock, or resolves —
// terminally failing as stall-failed if it was the frame's last attempt.
func (s *sim) stallFree(ev event) {
	s.engines[ev.eng].free++
	if fr := s.frames[ev.fid]; !fr.done && !ev.hedge && s.retry != nil {
		var deadline time.Time
		if s.spec.Deadline > 0 {
			deadline = time.Unix(0, fr.arr+int64(s.spec.Deadline))
		}
		if d, ok := s.retry.Next(serve.ErrStalled, fr.retries, ev.fid, time.Unix(0, s.now), deadline); ok {
			// The stalled attempt's pending slot carries over to the retry.
			fr.retries++
			s.seq++
			s.events.push(event{at: s.now + int64(d), seq: s.seq, kind: evRetry, fid: ev.fid})
			s.dispatch(int(ev.eng))
			return
		}
	}
	s.resolveAttempt(ev.fid, &s.counts.FailedStall)
	s.dispatch(int(ev.eng))
}

// retryFire re-dispatches a stalled frame once its backoff ends, unless
// another attempt resolved it meanwhile.
func (s *sim) retryFire(ev event) {
	fr := s.frames[ev.fid]
	if !fr.done {
		s.counts.Retried++
		if id := s.reenqueue(fr, ev.fid, false); id >= 0 {
			s.dispatch(id)
			return
		}
	}
	s.resolveAttempt(ev.fid, &s.counts.FailedStall)
}

// hedgeFire launches the frame's hedge if it is still unresolved and
// serve.HedgePolicy.Allow passes: shed controller disengaged, hedge budget
// not spent. The hedge is a full attempt: it can stall, be deadline-dropped,
// or win the race.
func (s *sim) hedgeFire(ev event) {
	fr := s.frames[ev.fid]
	if fr == nil || fr.done || fr.hedged {
		return
	}
	if !s.hedge.Allow(s.shed.Level(), s.counts.Hedged, s.counts.Offered) {
		return
	}
	id := s.reenqueue(fr, ev.fid, true)
	if id < 0 {
		return
	}
	fr.hedged = true
	fr.pending++
	s.counts.Hedged++
	s.dispatch(id)
}

// complete finishes one attempt: latency accounting, ladder calm
// observation, next dispatch. Under the survivability layer only the first
// attempt of a frame to complete counts — a hedge-race loser finishes its
// service without counting.
func (s *sim) complete(ev event) {
	e := &s.engines[ev.eng]
	e.free++
	if ev.fid != 0 {
		fr := s.frames[ev.fid]
		if !fr.done {
			fr.done = true
			lat := s.now - ev.arr
			s.lat = append(s.lat, lat)
			s.classLat[ev.prio] = append(s.classLat[ev.prio], lat)
			s.counts.Completed++
			s.counts.Degraded[ev.tier]++
			s.tDone[ev.tenant]++
			s.classes[ev.prio].Completed++
			if ev.hedge {
				s.counts.HedgeWins++
			}
		}
		s.resolveAttempt(ev.fid, &s.counts.FailedStall)
		e.ladder.Observe(e.n)
		s.dispatch(int(ev.eng))
		return
	}
	lat := s.now - ev.arr
	s.lat = append(s.lat, lat)
	s.classLat[ev.prio] = append(s.classLat[ev.prio], lat)
	s.counts.Completed++
	s.counts.Degraded[ev.tier]++
	s.tDone[ev.tenant]++
	s.classes[ev.prio].Completed++
	e.ladder.Observe(e.n)
	s.dispatch(int(ev.eng))
}

// step advances the virtual clock to the next event and processes it.
func (s *sim) step() {
	ev := s.events.pop()
	s.now = ev.at
	switch ev.kind {
	case evArrival:
		s.arrive()
		s.scheduleArrival()
	case evComplete:
		s.complete(ev)
	case evStallFree:
		s.stallFree(ev)
	case evHedge:
		s.hedgeFire(ev)
	case evRetry:
		s.retryFire(ev)
	}
}

func (s *sim) run() (Metrics, error) {
	s.scheduleArrival()
	for len(s.events) > 0 {
		s.step()
	}
	for i := range s.engines {
		s.counts.StepDowns += s.engines[i].ladder.StepDowns()
		s.counts.StepUps += s.engines[i].ladder.StepUps()
	}
	st := s.shed.Stats()
	s.counts.ShedRaises = st.Raises
	s.counts.ShedDrops = st.Drops

	c := &s.counts
	if c.Offered != c.Admitted+c.Shed() {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: offered %d != admitted %d + shed %d", c.Offered, c.Admitted, c.Shed())
	}
	if c.Admitted != c.Completed+c.FailedDeadline+c.FailedStall {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: admitted %d != completed %d + deadline-failed %d + stall-failed %d", c.Admitted, c.Completed, c.FailedDeadline, c.FailedStall)
	}
	if c.HedgeWins > c.Hedged {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: hedge wins %d > hedges launched %d", c.HedgeWins, c.Hedged)
	}
	if len(s.frames) > 0 {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: %d frames leaked unresolved", len(s.frames))
	}

	m := Metrics{Counts: s.counts}
	durSec := s.spec.Duration.Seconds()
	m.OfferedFPS = float64(c.Offered) / durSec
	m.GoodputFPS = float64(c.Completed) / durSec
	if c.Completed > 0 {
		m.FullFidelityFrac = float64(c.Degraded[0]) / float64(c.Completed)
	}
	m.P50, m.P99, m.Mean, m.Max = latSummary(s.lat)
	m.P50Ms, m.P99Ms = durMs(m.P50), durMs(m.P99)
	m.MeanMs, m.MaxMs = durMs(m.Mean), durMs(m.Max)
	for cidx := range s.classes {
		cl := s.classes[cidx]
		p50, p99, _, _ := latSummary(s.classLat[cidx])
		cl.P50Ms, cl.P99Ms = durMs(p50), durMs(p99)
		m.Classes = append(m.Classes, cl)
	}
	shares := make([]float64, 0, s.spec.Tenants)
	for t := 0; t < s.spec.Tenants; t++ {
		if s.tOffered[t] == 0 {
			continue
		}
		shares = append(shares, float64(s.tDone[t])/float64(s.tOffered[t]))
	}
	m.FairnessJain = metrics.JainFairness(shares)
	return m, nil
}

// latSummary computes nearest-rank quantiles over latency samples.
func latSummary(lat []int64) (p50, p99, mean, max time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]int64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	rank := func(q float64) time.Duration {
		r := int(q*float64(len(sorted)) + 0.5)
		if r < 1 {
			r = 1
		}
		if r > len(sorted) {
			r = len(sorted)
		}
		return time.Duration(sorted[r-1])
	}
	return rank(0.50), rank(0.99), time.Duration(sum / int64(len(sorted))), time.Duration(sorted[len(sorted)-1])
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// Scenario is one grid point: the overload multiplier and its metrics.
type Scenario struct {
	Mult float64 `json:"mult"`
	Metrics
}

// RunGrid runs the spec at each overload multiplier with the same seed.
func RunGrid(spec Spec, mults []float64) ([]Scenario, error) {
	out := make([]Scenario, 0, len(mults))
	for _, mult := range mults {
		m, err := Run(spec, mult)
		if err != nil {
			return nil, fmt.Errorf("mult %g: %w", mult, err)
		}
		out = append(out, Scenario{Mult: mult, Metrics: m})
	}
	return out, nil
}
