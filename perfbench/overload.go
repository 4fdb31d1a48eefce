package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/edgesim"
	"repro/internal/loadgen"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// The pp-overload traffic. The rate is fixed, not derived from the machine,
// so a faster program meets the same offered load. On the two-core machine
// the benchmark was defined on, two workers complete about 55 frames/s when
// saturated with the ladder at its cheapest rungs (20/s at full fidelity),
// so 80/s is about 1.5× overload whatever rung the ladder is on.
var overloadTraffic = trafficSpec{Rate: 80, Tenants: 64, ZipfS: 1.1, Streams: 2}

const (
	overloadEngines  = 2
	overloadDeadline = 500 * time.Millisecond
	// qosRate and qosBurst are every tenant's token bucket: under the Zipf
	// skew the most popular tenant exceeds it and is throttled.
	qosRate  = 10
	qosBurst = 10
	// lagLimit bounds how late the generator may issue requests (at its tail
	// percentile) for the open loop to count as open.
	lagLimit = 50 * time.Millisecond
	// warmTenant is the set-up traffic's tenant: unthrottled, high priority,
	// never part of the measured schedule.
	warmTenant = "warm-up"
)

type overloadFixture struct {
	served
	router *serve.Router
}

// classify is the QoS hook: one contract for every tenant, the class from a
// hash of the tenant name.
func classify(tenant string) serve.TenantLimit {
	if tenant == warmTenant {
		return serve.TenantLimit{Priority: serve.PriorityHigh}
	}
	return serve.TenantLimit{Rate: qosRate, Burst: qosBurst, Priority: priorityOf(tenant)}
}

// setupOverload builds two one-worker engines with the full degradation
// ladder the way edgepc-serve builds a fleet, the router over them with
// QoS, shedding, retries and auto-delay hedging, the frame pool and the
// reference logits. It warms every replica of every rung directly, since
// each allocates its workspace (and the int8 rung quantizes its weights) on
// first use, and peak memory would otherwise depend on which rungs a run's
// ladder happened to visit; then it warms the router's latency window.
func setupOverload(seed int64) (*overloadFixture, error) {
	w, opts, err := w1()
	if err != nil {
		return nil, err
	}
	tierOpts := pipeline.DegradeTiers(w, opts, pipeline.MaxDegradeTiers)
	fleet, err := pipeline.FleetReplicas(w, pipeline.SN, opts, overloadEngines, 1, tierOpts)
	if err != nil {
		return nil, err
	}
	base := fleet[0][0][0]
	sv, err := newServed(base, w, opts, seed)
	if err != nil {
		return nil, err
	}
	var tr model.Trace
	for e, rows := range fleet {
		for t, row := range rows {
			for _, net := range row {
				_, out, err := pipeline.RunInto(net, sv.pool[0], &tr, nil, edgesim.Config{})
				if err == nil {
					err = checkServed(serve.Result{Tier: t, Output: out}, sv.refs[0])
				}
				if err != nil {
					return nil, fmt.Errorf("warm-up engine %d rung %d: %w", e, t, err)
				}
			}
		}
	}
	engines := make([]*serve.Engine, 0, overloadEngines)
	closeAll := func() {
		for _, e := range engines {
			e.Close()
		}
	}
	for e := range fleet {
		cfg := serve.Config{
			Rebuild: func(worker, tier int) (pipeline.Net, error) {
				o := opts
				if tier > 0 {
					o = tierOpts[tier-1]
				}
				return pipeline.RebuildReplica(base, w, pipeline.SN, o)
			},
		}
		for i, row := range fleet[e][1:] {
			cfg.Degrade = append(cfg.Degrade, serve.Tier{Name: fmt.Sprintf("rung%d", i+1), Nets: row})
		}
		eng, err := serve.New(fleet[e][0], edgesim.JetsonAGXXavier(), pipeline.SimConfig(w, pipeline.SN, opts), cfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		engines = append(engines, eng)
	}
	router, err := serve.NewRouter(engines, serve.RouterConfig{
		QoS:   serve.NewQoS(serve.QoSConfig{Classify: classify}),
		Retry: &serve.RetryPolicy{Max: 2, Seed: uint64(seed)},
		Hedge: &serve.HedgePolicy{},
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	// Sequential requests on streams that cover both engines.
	for i, c := range sv.pool {
		res, err := router.Submit(context.Background(), serve.FleetRequest{
			Request: serve.Request{Cloud: c},
			Tenant:  warmTenant,
			Stream:  fmt.Sprintf("%s-%d", warmTenant, i),
		})
		if err == nil {
			err = checkServed(res, sv.refs[i])
		}
		if err != nil {
			router.Close()
			return nil, fmt.Errorf("warm-up frame %d: %w", i, err)
		}
	}
	return &overloadFixture{served: sv, router: router}, nil
}

func (f *overloadFixture) close() { f.router.Close() }

type reqClass int

const (
	clsGood reqClass = iota
	clsLate
	clsCheckFailed
	clsThrottled
	clsShed
	clsQueueFull
	clsDeadline
	clsErrored
)

type reqOutcome struct {
	class reqClass
	err   error
	lag   time.Duration // issue time − due time
	lat   time.Duration // completion − due time
	wall  time.Duration // Router.Submit wall time
	res   serve.Result  // without its Output, which is checked and dropped
}

// issue sends one request at (or just after) its due time and classifies
// the outcome. The deadline runs from the due time, so generator lag eats
// into the request's budget.
func (f *overloadFixture) issue(a arrival, due time.Time, req int, tr *tracer) reqOutcome {
	t0 := time.Now()
	out := reqOutcome{lag: t0.Sub(due)}
	budget := overloadDeadline - out.lag
	if budget < time.Millisecond {
		budget = time.Millisecond
	}
	res, err := f.router.Submit(context.Background(), serve.FleetRequest{
		Request: serve.Request{Cloud: f.pool[a.Frame], Timeout: budget},
		Tenant:  tenantName(a.Tenant),
		Stream:  streamName(a.Tenant, a.Stream),
	})
	t1 := time.Now()
	out.wall, out.lat = t1.Sub(t0), t1.Sub(due)
	out.res = res
	out.res.Output = nil
	switch {
	case err == nil:
		if cerr := checkServed(res, f.refs[a.Frame]); cerr != nil {
			out.class, out.err = clsCheckFailed, cerr
		} else if out.lat > overloadDeadline {
			out.class = clsLate
		}
	case errors.Is(err, serve.ErrThrottled):
		out.class = clsThrottled
	case errors.Is(err, serve.ErrShed):
		out.class = clsShed
	case errors.Is(err, serve.ErrQueueFull):
		out.class = clsQueueFull
	case errors.Is(err, serve.ErrDeadline):
		out.class = clsDeadline
	default:
		out.class, out.err = clsErrored, err
	}
	if tr != nil {
		tr.add(req, "request", "", due, t1)
		tr.add(req, "gen.lag", "request", due, t0)
		tr.add(req, "router.submit", "request", t0, t1)
		if err == nil {
			begin := t1.Add(-res.Total)
			tr.add(req, "serve.wait", "router.submit", begin, begin.Add(res.Wait))
			tr.add(req, "serve.service", "router.submit", begin.Add(res.Wait), t1)
		}
	}
	return out
}

type overloadPhase struct {
	t             tally
	latMs, lagMs  []float64
	log           servedLog
	before, after serve.RouterStats
	firstErr      error
}

// runPhase replays the schedule open loop: each request is issued on its
// own goroutine at its due time, whatever happened to earlier ones.
func (f *overloadFixture) runPhase(sched []arrival, tr *tracer) overloadPhase {
	ph := overloadPhase{before: f.router.Stats()}
	outs := make([]reqOutcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = f.issue(a, due, i, tr)
		}()
	}
	wg.Wait()
	ph.after = f.router.Stats()
	for _, o := range outs {
		ph.t.Offered++
		ph.lagMs = append(ph.lagMs, ms(o.lag))
		switch o.class {
		case clsGood:
			ph.t.Good++
		case clsLate:
			ph.t.Late++
		case clsCheckFailed:
			ph.t.CheckFailed++
		case clsThrottled:
			ph.t.Throttled++
		case clsShed:
			ph.t.Shed++
		case clsQueueFull:
			ph.t.QueueFull++
		case clsDeadline:
			ph.t.Deadline++
		case clsErrored:
			ph.t.Errored++
		}
		if o.class == clsGood || o.class == clsLate {
			ph.latMs = append(ph.latMs, ms(o.lat))
			ph.log.observe(o.res, o.wall)
		}
		if o.err != nil && ph.firstErr == nil {
			ph.firstErr = o.err
		}
	}
	return ph
}

// ladderSteps totals the fleet's ladder step-downs and step-ups.
func ladderSteps(s serve.RouterStats) (down, up uint64) {
	for _, e := range s.EngineStats {
		down += e.StepDowns
		up += e.StepUps
	}
	return down, up
}

// account folds a phase into the outcome: attempted and failed operations,
// the accounting cross-check, and the validity conditions of an overload
// run (the ladder stepped down, the shed controller engaged, the generator
// kept to its schedule).
func (ph *overloadPhase) account(o *outcome, name string) {
	o.attempted += ph.t.Offered
	o.failed += ph.t.CheckFailed + ph.t.Errored
	if ph.firstErr != nil {
		o.problem("%s: first failed request: %v", name, ph.firstErr)
	}
	if err := checkAccounting(ph.t, ph.before, ph.after); err != nil {
		o.problem("%s: %v", name, err)
	}
	d0, _ := ladderSteps(ph.before)
	if d1, _ := ladderSteps(ph.after); d1 == d0 {
		o.invalidate("%s: the degradation ladder never stepped down", name)
	}
	if ph.after.Shed.Raises == ph.before.Shed.Raises {
		o.invalidate("%s: the shed controller never engaged", name)
	}
	if lag := ph.lagTail(); lag > ms(lagLimit) {
		o.invalidate("%s: generator lag tail %.2f ms exceeds %v", name, lag, lagLimit)
	}
	o.detail["accounting_"+name] = ph.t
}

func (ph *overloadPhase) lagTail() float64 {
	p, _ := tailPercentile(len(ph.lagMs), 99)
	return percentile(ph.lagMs, p)
}

func runOverload(cfg runConfig) (*outcome, error) {
	keep := 1
	if cfg.trace {
		keep = 2
	}
	fx, setup, err := setupN(func() (*overloadFixture, error) { return setupOverload(cfg.seed) }, (*overloadFixture).close, keep)
	if err != nil {
		return nil, err
	}
	sched := schedule(cfg.seed, overloadTraffic, cfg.window)
	o := newOutcome()
	o.metrics["setup_s"] = setup
	a := fx[0].runPhase(sched, nil)
	fx[0].close()
	a.account(o, "untraced")
	goodput := float64(a.t.Good) / cfg.window.Seconds()
	o.metrics["goodput_per_s"] = goodput
	latencyMetrics(o, a.latMs)
	o.samples["offered"] = a.t.Offered
	if !cfg.trace {
		return o, nil
	}

	f := fx[1]
	tr := newTracer()
	p0 := sampleProc()
	sampler := startStatsSampler(func() { _ = f.router.Stats() })
	b := f.runPhase(sched, tr)
	snaps := sampler.finish()
	p1 := sampleProc()
	f.close()
	b.account(o, "traced")
	b.log.report(o)
	d := func(x, y uint64) float64 { return float64(x - y) }
	d0, u0 := ladderSteps(b.before)
	d1, u1 := ladderSteps(b.after)
	o.metrics["serve.step_downs"] = d(d1, d0)
	o.metrics["serve.step_ups"] = d(u1, u0)
	o.metrics["serve.shed_frac"] = frac(b.t.sheds(), b.t.Offered)
	o.metrics["serve.deadline_fail_frac"] = frac(b.t.Deadline+b.t.Late, b.t.Offered)
	o.metrics["serve.retries"] = d(b.after.Retries, b.before.Retries)
	hedges := d(b.after.Hedges, b.before.Hedges)
	o.metrics["serve.hedges"] = hedges
	if hedges > 0 {
		o.metrics["serve.hedge_win_ratio"] = d(b.after.HedgeWins, b.before.HedgeWins) / hedges
	}
	o.metrics["metrics.stats_snapshot_us"] = median(snaps)
	o.metrics["process.cpu_util"], o.metrics["process.gc_cpu_frac"] = procDelta(p0, p1)
	o.metrics["gen.lag_ms.tail"] = b.lagTail()
	o.metrics["trace.overhead_pct"] = overheadPct(goodput, float64(b.t.Good)/cfg.window.Seconds())
	o.samples["stats_snapshots"] = len(snaps)
	if err := loadgenCheck(o, cfg, &b); err != nil {
		return nil, err
	}
	if err := probeModel(o, f.w, f.opts, f.ref, f.pool); err != nil {
		return nil, err
	}
	if err := tr.write(traceDir, fmt.Sprintf("pp-overload-seed%d.jsonl", cfg.seed)); err != nil {
		return nil, err
	}
	return o, nil
}

// loadgenCheck feeds the schedule's parameters and the traced per-tier
// service times to the virtual-time predictor and reports how far its shed
// fraction and p99 latency land from the measured ones (predicted minus
// measured). Exponential gaps have a coefficient of variation of 1, which
// the predictor's Pareto gaps match at α = 1+√2.
func loadgenCheck(o *outcome, cfg runConfig, b *overloadPhase) error {
	svc := make([]time.Duration, len(b.log.svcByTier))
	for t, xs := range b.log.svcByTier {
		switch {
		case len(xs) > 0:
			svc[t] = time.Duration(median(xs) * float64(time.Millisecond))
		case t > 0:
			svc[t] = svc[t-1]
		default:
			return fmt.Errorf("loadgen check: no full-fidelity completion in the traced phase")
		}
	}
	spec := loadgen.Spec{
		Seed:        uint64(cfg.seed),
		Duration:    cfg.window,
		Rate:        overloadTraffic.Rate,
		ParetoAlpha: 1 + math.Sqrt2,
		Tenants:     overloadTraffic.Tenants,
		ZipfS:       overloadTraffic.ZipfS,
		Streams:     overloadTraffic.Streams,
		Mix:         classMix,
		Engines:     overloadEngines,
		Workers:     1,
		SvcTiers:    svc,
		QoSRate:     qosRate,
		QoSBurst:    qosBurst,
		Deadline:    overloadDeadline,
		VNodes:      serve.DefaultVNodes,
		Spill:       1,
	}
	m, err := loadgen.Run(spec, 1)
	if err != nil {
		return fmt.Errorf("loadgen check: %w", err)
	}
	measuredP99 := percentile(b.latMs, 99)
	o.metrics["loadgen.shed_frac_gap"] = frac(int(m.Shed()), int(m.Offered)) - frac(b.t.sheds(), b.t.Offered)
	o.metrics["loadgen.latency_tail_gap_ms"] = m.P99Ms - measuredP99
	svcMs := make([]float64, len(svc))
	for t, d := range svc {
		svcMs[t] = ms(d)
	}
	o.detail["loadgen_svc_ms"] = svcMs
	return nil
}
