package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// w1 is the serving workloads' model: W1 PointNet++(s) under S+N, at the
// default options edgepc-serve uses.
func w1() (pipeline.Workload, pipeline.Options, error) {
	w, err := pipeline.WorkloadByID("W1")
	return w, pipeline.Options{Seed: modelSeed}, err
}

// referenceLogits runs every pooled frame through a dedicated replica with a
// direct pipeline.RunInto. Served full-fidelity logits must equal these.
func referenceLogits(net pipeline.Net, pool []*geom.Cloud) ([]*tensor.Matrix, error) {
	refs := make([]*tensor.Matrix, len(pool))
	var tr model.Trace
	for i, c := range pool {
		_, out, err := pipeline.RunInto(net, c, &tr, nil, edgesim.Config{})
		if err != nil {
			return nil, fmt.Errorf("reference frame %d: %w", i, err)
		}
		refs[i] = out.Logits
	}
	return refs, nil
}

// served is a serving workload's model, frame pool and reference outputs.
type served struct {
	w    pipeline.Workload
	opts pipeline.Options
	ref  pipeline.Net // dedicated replica: reference outputs and probes
	pool []*geom.Cloud
	refs []*tensor.Matrix
}

// newServed builds the reference replica (sharing weights with base), the
// frame pool and the reference logits.
func newServed(base pipeline.Net, w pipeline.Workload, opts pipeline.Options, seed int64) (served, error) {
	s := served{w: w, opts: opts}
	var err error
	if s.ref, err = pipeline.RebuildReplica(base, w, pipeline.SN, opts); err != nil {
		return s, err
	}
	if s.pool, err = framePool(w, seed); err != nil {
		return s, err
	}
	s.refs, err = referenceLogits(s.ref, s.pool)
	return s, err
}

type streamFixture struct {
	served
	engine *serve.Engine
}

// setupStream builds the engine the way edgepc-serve builds it for one
// worker with batching off, generates the frame pool, computes the reference
// logits and warms the engine with every pooled frame.
func setupStream(seed int64) (*streamFixture, error) {
	w, opts, err := w1()
	if err != nil {
		return nil, err
	}
	rows, err := pipeline.TieredReplicas(w, pipeline.SN, opts, 1, nil)
	if err != nil {
		return nil, err
	}
	sv, err := newServed(rows[0][0], w, opts, seed)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		MaxBatch: 1,
		Rebuild: func(worker, tier int) (pipeline.Net, error) {
			return pipeline.RebuildReplica(rows[0][0], w, pipeline.SN, opts)
		},
	}
	eng, err := serve.New(rows[0], edgesim.JetsonAGXXavier(), pipeline.SimConfig(w, pipeline.SN, opts), cfg)
	if err != nil {
		return nil, err
	}
	for i, c := range sv.pool {
		res, err := eng.Submit(context.Background(), serve.Request{Cloud: c})
		if err == nil {
			err = checkServed(res, sv.refs[i])
		}
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("warm-up frame %d: %w", i, err)
		}
	}
	return &streamFixture{served: sv, engine: eng}, nil
}

func (f *streamFixture) close() { f.engine.Close() }

// servedLog collects per-request serve-layer observations of a phase.
type servedLog struct {
	latMs      []float64 // end-to-end latency of good requests
	waitMs     []float64 // Result.Wait
	serviceMs  []float64 // Result.Total − Result.Wait
	overheadUs []float64 // Submit wall time − Result.Total
	batch      []float64
	tiers      [pipeline.MaxDegradeTiers + 1]int
	svcByTier  [pipeline.MaxDegradeTiers + 1][]float64
	modelled   []float64 // Result.Report.Total, modelled device ms
}

func (l *servedLog) observe(res serve.Result, wall time.Duration) {
	l.waitMs = append(l.waitMs, ms(res.Wait))
	svc := ms(res.Total - res.Wait)
	l.serviceMs = append(l.serviceMs, svc)
	l.overheadUs = append(l.overheadUs, float64(wall-res.Total)/float64(time.Microsecond))
	l.batch = append(l.batch, float64(res.BatchSize))
	if res.Tier >= 0 && res.Tier < len(l.tiers) {
		l.tiers[res.Tier]++
		l.svcByTier[res.Tier] = append(l.svcByTier[res.Tier], svc)
	}
	l.modelled = append(l.modelled, ms(res.Report.Total))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report writes the serve-layer per-layer metrics of a traced phase.
func (l *servedLog) report(o *outcome) {
	o.metrics["serve.queue_wait_ms.p50"] = median(l.waitMs)
	p, _ := tailPercentile(len(l.waitMs), tailCap)
	o.metrics["serve.queue_wait_ms.tail"] = percentile(l.waitMs, p)
	o.metrics["serve.service_ms.p50"] = median(l.serviceMs)
	o.metrics["serve.submit_overhead_us.p50"] = median(l.overheadUs)
	o.metrics["serve.batch_size.mean"] = mean(l.batch)
	n := 0
	for _, c := range l.tiers {
		n += c
	}
	for t, c := range l.tiers {
		o.metrics[fmt.Sprintf("serve.tier_frac.t%d", t)] = frac(c, n)
	}
	o.metrics["edgesim.modelled_frame_ms"] = mean(l.modelled)
	o.samples["serve.completions"] = n
}

type streamPhase struct {
	attempted, good, failed int
	elapsed                 time.Duration
	log                     servedLog
	firstErr                error
}

// runPhase is the closed loop: one client submits the next pooled frame as
// soon as the previous result arrives, for the whole window.
func (f *streamFixture) runPhase(seed int64, window time.Duration, tr *tracer) streamPhase {
	next := frameOrder(seed)
	var ph streamPhase
	start := time.Now()
	for time.Since(start) < window {
		i := next()
		ph.attempted++
		t0 := time.Now()
		res, err := f.engine.Submit(context.Background(), serve.Request{Cloud: f.pool[i]})
		t1 := time.Now()
		if err == nil {
			err = checkServed(res, f.refs[i])
		}
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = err
			}
			continue
		}
		ph.good++
		wall := t1.Sub(t0)
		ph.log.latMs = append(ph.log.latMs, ms(wall))
		if tr != nil {
			ph.log.observe(res, wall)
			req := ph.attempted
			tr.add(req, "engine.submit", "", t0, t1)
			begin := t1.Add(-res.Total)
			tr.add(req, "serve.wait", "engine.submit", begin, begin.Add(res.Wait))
			tr.add(req, "serve.service", "engine.submit", begin.Add(res.Wait), t1)
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}

func runStream(cfg runConfig) (*outcome, error) {
	keep := 1
	if cfg.trace {
		keep = 2
	}
	fx, setup, err := setupN(func() (*streamFixture, error) { return setupStream(cfg.seed) }, (*streamFixture).close, keep)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.metrics["setup_s"] = setup
	a := fx[0].runPhase(cfg.seed, cfg.window, nil)
	fx[0].close()
	o.attempted, o.failed = a.attempted, a.failed
	if a.firstErr != nil {
		o.problem("first failed frame: %v", a.firstErr)
	}
	goodput := float64(a.good) / a.elapsed.Seconds()
	o.metrics["goodput_per_s"] = goodput
	latencyMetrics(o, a.log.latMs)
	if !cfg.trace {
		return o, nil
	}

	f := fx[1]
	tr := newTracer()
	p0 := sampleProc()
	sampler := startStatsSampler(func() { _ = f.engine.Stats() })
	b := f.runPhase(cfg.seed, cfg.window, tr)
	snaps := sampler.finish()
	p1 := sampleProc()
	st := f.engine.Stats()
	f.close()
	o.attempted += b.attempted
	o.failed += b.failed
	if b.firstErr != nil && a.firstErr == nil {
		o.problem("first failed frame: %v", b.firstErr)
	}
	b.log.report(o)
	o.metrics["serve.step_downs"] = float64(st.StepDowns)
	o.metrics["serve.step_ups"] = float64(st.StepUps)
	o.metrics["serve.shed_frac"] = 0
	o.metrics["serve.deadline_fail_frac"] = frac(int(st.TimedOut), b.attempted)
	o.metrics["metrics.stats_snapshot_us"] = median(snaps)
	o.metrics["process.cpu_util"], o.metrics["process.gc_cpu_frac"] = procDelta(p0, p1)
	o.metrics["trace.overhead_pct"] = overheadPct(goodput, float64(b.good)/b.elapsed.Seconds())
	o.samples["stats_snapshots"] = len(snaps)
	if err := probeModel(o, f.w, f.opts, f.ref, f.pool); err != nil {
		return nil, err
	}
	if err := tr.write(traceDir, fmt.Sprintf("pp-stream-seed%d.jsonl", cfg.seed)); err != nil {
		return nil, err
	}
	return o, nil
}

// latencyMetrics writes the end-to-end latency median and tail.
func latencyMetrics(o *outcome, latMs []float64) {
	o.metrics["latency_p50_ms"] = median(latMs)
	p, ok := tailPercentile(len(latMs), tailCap)
	o.metrics["latency_tail_ms"] = percentile(latMs, p)
	o.samples["latency"] = len(latMs)
	o.detail["tail_percentile"] = p
	if !ok {
		o.invalidate("only %d latency samples: fewer than %d lie beyond any tail percentile", len(latMs), minBeyond)
	}
}

// overheadPct is the drop from the untraced to the traced goodput, in
// percent of the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}

// traceDir is where traced runs write their spans, inside the build
// directory the run script uses.
const traceDir = ".bench_build/traces"
