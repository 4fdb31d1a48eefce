package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pipeline"
	"repro/internal/train"
)

// The dgcnn-train set: a small seeded ModelNet-like split so one run spans
// several epochs, which the loss-decrease check needs.
const (
	trainItems = 16
	testItems  = 4
	// trainLR and trainBatch follow edgepc-train's retraining recipe.
	trainLR    = 2e-3
	trainBatch = 4
	// calibItems is how many items the set-up's warm-up epoch trains on; its
	// per-item time sizes the measured run's epoch count to the window.
	calibItems = 4
)

// timedSet serves pre-generated samples to train.Run and stamps every
// training-split access, which marks where each training step begins. The
// first test-split access marks the end of training (train.Run evaluates
// once, after its last epoch).
type timedSet struct {
	items   []*dataset.Sample
	classes int
	stamps  []time.Time
	evalAt  time.Time
	tr      *tracer
}

func (s *timedSet) Len() int     { return len(s.items) }
func (s *timedSet) Classes() int { return s.classes }
func (s *timedSet) Name() string { return "perfbench-modelnet" }
func (s *timedSet) reset()       { s.stamps, s.evalAt = s.stamps[:0], time.Time{} }

func (s *timedSet) At(i int) (*dataset.Sample, error) {
	if i < 0 || i >= len(s.items) {
		return nil, fmt.Errorf("perfbench: item %d out of %d", i, len(s.items))
	}
	now := time.Now()
	if i < trainItems {
		if n := len(s.stamps); n > 0 && s.tr != nil {
			s.tr.add(n-1, "train.step", "", s.stamps[n-1], now)
		}
		s.stamps = append(s.stamps, now)
	} else if s.evalAt.IsZero() {
		s.evalAt = now
		if n := len(s.stamps); n > 0 && s.tr != nil {
			s.tr.add(n-1, "train.step", "", s.stamps[n-1], now)
		}
	}
	return s.items[i], nil
}

// stepMs is each training item's step time: from its access to the next
// training access, or to the start of evaluation for the last one.
func (s *timedSet) stepMs() []float64 {
	out := make([]float64, 0, len(s.stamps))
	for i, t := range s.stamps {
		end := s.evalAt
		if i+1 < len(s.stamps) {
			end = s.stamps[i+1]
		}
		out = append(out, ms(end.Sub(t)))
	}
	return out
}

type trainFixture struct {
	w      pipeline.Workload
	opts   pipeline.Options
	net    pipeline.Net
	set    *timedSet
	itemMs float64 // per-item step time measured by the warm-up epoch
}

func w3() (pipeline.Workload, pipeline.Options, error) {
	w, err := pipeline.WorkloadByID("W3")
	return w, pipeline.Options{Seed: modelSeed}, err
}

// setupTrain builds the net to train, generates the training set, and runs
// a one-epoch warm-up on a throwaway net of the same shape.
func setupTrain(seed int64) (*trainFixture, error) {
	w, opts, err := w3()
	if err != nil {
		return nil, err
	}
	ds := dataset.NewClassification(trainItems+testItems, subSeed(seed, seedTrainSet))
	ds.Points = w.Points
	set := &timedSet{classes: ds.Classes()}
	for i := 0; i < ds.Len(); i++ {
		s, err := ds.At(i)
		if err != nil {
			return nil, err
		}
		set.items = append(set.items, s)
	}
	f := &trainFixture{w: w, opts: opts, set: set}
	if f.net, err = pipeline.Build(w, pipeline.SN, opts); err != nil {
		return nil, err
	}
	warm, err := pipeline.Build(w, pipeline.SN, opts)
	if err != nil {
		return nil, err
	}
	if _, err := train.Run(warm, set, seqIdx(0, calibItems), seqIdx(trainItems, 1), f.config(1, seed)); err != nil {
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	f.itemMs = median(set.stepMs())
	set.reset()
	return f, nil
}

func seqIdx(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

func (f *trainFixture) config(epochs int, seed int64) train.Config {
	return train.Config{Epochs: epochs, LR: trainLR, BatchSize: trainBatch, Seed: seed}
}

type trainPhase struct {
	items   int
	elapsed time.Duration
	stepMs  []float64
	losses  []float64
	failed  int
	checks  []string
}

// runPhase trains for as many epochs as fit the window at the warm-up's
// per-item pace (at least two, so the loss trend can be checked).
func (f *trainFixture) runPhase(seed int64, window time.Duration, tr *tracer) (trainPhase, error) {
	epochs := int(math.Round(window.Seconds() * 1000 / (f.itemMs * trainItems)))
	if epochs < 2 {
		epochs = 2
	}
	f.set.reset()
	f.set.tr = tr
	res, err := train.Run(f.net, f.set, seqIdx(0, trainItems), seqIdx(trainItems, testItems), f.config(epochs, seed))
	if err != nil {
		return trainPhase{}, err
	}
	ph := trainPhase{items: len(f.set.stamps), stepMs: f.set.stepMs(), losses: res.TrainLoss}
	if ph.items > 0 {
		ph.elapsed = f.set.evalAt.Sub(f.set.stamps[0])
	}
	for e, l := range res.TrainLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			ph.failed++
			ph.checks = append(ph.checks, fmt.Sprintf("epoch %d loss is %v", e, l))
		}
	}
	if n := len(res.TrainLoss); n < 2 || !(res.TrainLoss[n-1] < res.TrainLoss[0]) {
		ph.failed++
		ph.checks = append(ph.checks, fmt.Sprintf("loss did not fall from the first to the last epoch: %v", res.TrainLoss))
	}
	if !(res.TestAcc >= 0 && res.TestAcc <= 1) {
		ph.failed++
		ph.checks = append(ph.checks, fmt.Sprintf("test accuracy %v outside [0,1]", res.TestAcc))
	}
	return ph, nil
}

func (ph trainPhase) account(o *outcome) {
	o.attempted += ph.items
	o.failed += ph.failed
	for _, c := range ph.checks {
		o.problem("%s", c)
	}
}

func (ph trainPhase) goodput() float64 {
	if ph.elapsed <= 0 || ph.failed > 0 {
		return 0
	}
	return float64(ph.items) / ph.elapsed.Seconds()
}

func runTrain(cfg runConfig) (*outcome, error) {
	keep := 1
	if cfg.trace {
		keep = 2
	}
	fx, setup, err := setupN(func() (*trainFixture, error) { return setupTrain(cfg.seed) }, func(*trainFixture) {}, keep)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.metrics["setup_s"] = setup
	a, err := fx[0].runPhase(cfg.seed, cfg.window, nil)
	if err != nil {
		return nil, err
	}
	a.account(o)
	goodput := a.goodput()
	o.metrics["goodput_per_s"] = goodput
	latencyMetrics(o, a.stepMs)
	o.detail["epoch_loss"] = a.losses
	if !cfg.trace {
		return o, nil
	}

	f := fx[1]
	tr := newTracer()
	p0 := sampleProc()
	b, err := f.runPhase(cfg.seed, cfg.window, tr)
	if err != nil {
		return nil, err
	}
	p1 := sampleProc()
	b.account(o)
	o.metrics["process.cpu_util"], o.metrics["process.gc_cpu_frac"] = procDelta(p0, p1)
	o.metrics["trace.overhead_pct"] = overheadPct(goodput, b.goodput())
	eval, err := pipeline.Build(f.w, pipeline.SN, f.opts)
	if err != nil {
		return nil, err
	}
	clouds := make([]*geom.Cloud, len(f.set.items))
	for i, s := range f.set.items {
		clouds[i] = s.Cloud
	}
	if err := probeModel(o, f.w, f.opts, eval, clouds); err != nil {
		return nil, err
	}
	if err := tr.write(traceDir, fmt.Sprintf("dgcnn-train-seed%d.jsonl", cfg.seed)); err != nil {
		return nil, err
	}
	return o, nil
}
