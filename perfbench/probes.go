package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// Probe repetition counts: enough for a stable median at frame scale while
// keeping the traced run's extra time to a few seconds.
const (
	frameReps  = 12
	allocReps  = 4
	kernelReps = 7
	trainReps  = 4
)

// timeReps runs f reps times and returns the median wall time in ms.
func timeReps(reps int, f func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(t))
	}
	return median(xs), nil
}

// probeModel measures the pipeline, model, morton, sample, neighbor, tensor,
// nn and edgesim layers directly, on a dedicated replica of the workload's
// net and on shapes read from that replica's own trace.
func probeModel(o *outcome, w pipeline.Workload, opts pipeline.Options, net pipeline.Net, clouds []*geom.Cloud) error {
	sim := pipeline.SimConfig(w, pipeline.SN, opts)
	var tr model.Trace
	if _, _, err := pipeline.RunInto(net, clouds[0], &tr, nil, sim); err != nil {
		return err
	}

	// Frame time and the trace's own per-stage records.
	frameMs := make([]float64, frameReps)
	stageMs := map[model.StageKind][]float64{}
	for i := range frameMs {
		t := time.Now()
		if _, _, err := pipeline.RunInto(net, clouds[i%len(clouds)], &tr, nil, sim); err != nil {
			return err
		}
		frameMs[i] = ms(time.Since(t))
		by := tr.DurByStage()
		for k := model.StageSample; k <= model.StageStructurize; k++ {
			stageMs[k] = append(stageMs[k], ms(by[k]))
		}
	}
	o.metrics["pipeline.frame_ms.p50"] = median(frameMs)
	measured := map[model.StageKind]float64{}
	for k, xs := range stageMs {
		measured[k] = median(xs)
		o.metrics["model.stage_ms."+k.String()] = measured[k]
	}

	// Allocations of one frame on this goroutine, read from the runtime's
	// cumulative counters.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocReps; i++ {
		if _, _, err := pipeline.RunInto(net, clouds[i%len(clouds)], &tr, nil, sim); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	o.metrics["pipeline.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / allocReps
	o.metrics["pipeline.bytes_per_frame"] = float64(m1.TotalAlloc-m0.TotalAlloc) / allocReps

	// The last trace gives the shapes every kernel probe below runs at.
	rep := edgesim.JetsonAGXXavier().PriceTrace(&tr, sim)
	if _, ok := o.metrics["edgesim.modelled_frame_ms"]; !ok {
		o.metrics["edgesim.modelled_frame_ms"] = ms(rep.Total)
	}
	edgesimChecks(o, rep, measured)
	if err := probeKernels(o, tr.Records, clouds[0], opts.Backend); err != nil {
		return err
	}
	return probeTrain(o, w, opts, clouds)
}

// edgesimChecks compares measured stage shares with the cost model's: the
// largest per-stage share gap, and whether both agree which side of Fig. 3's
// sample+neighbor versus feature split dominates.
func edgesimChecks(o *outcome, rep edgesim.Report, measured map[model.StageKind]float64) {
	var total float64
	for _, v := range measured {
		total += v
	}
	gap := 0.0
	for k := model.StageSample; k <= model.StageStructurize; k++ {
		var m, p float64
		if total > 0 {
			m = measured[k] / total
		}
		if rep.Total > 0 {
			p = rep.ByStage[k].Seconds() / rep.Total.Seconds()
		}
		gap = math.Max(gap, math.Abs(m-p))
	}
	o.metrics["edgesim.stage_share_gap"] = gap
	sn := measured[model.StageSample] + measured[model.StageNeighbor] + measured[model.StageInterp] + measured[model.StageStructurize]
	feat := measured[model.StageFeature] + measured[model.StageGroup]
	agree := (sn > feat) == (rep.SampleNeighbor > rep.Feature)
	o.metrics["edgesim.fig3_split_agrees"] = boolf(agree)
	o.detail["fig3_split"] = map[string]any{
		"measured_sample_neighbor_share": sn / (sn + feat),
		"modelled_sample_neighbor_share": rep.SampleNeighbor.Seconds() / rep.Total.Seconds(),
	}
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// probeKernels times the structurize, sampling, neighbor-search and matmul
// kernels at the shapes recorded in recs.
func probeKernels(o *outcome, recs []model.StageRecord, cloud *geom.Cloud, backend string) error {
	st, err := core.Structurize(cloud, core.StructurizeOptions{})
	if err != nil {
		return err
	}
	if o.metrics["morton.structurize_ms"], err = timeReps(kernelReps, func() error {
		_, err := core.Structurize(cloud, core.StructurizeOptions{})
		return err
	}); err != nil {
		return err
	}
	sorted := st.Cloud.Points

	var fps, window, knn *model.StageRecord
	var gflop, bytes float64
	var biggest *model.StageRecord
	for i := range recs {
		r := &recs[i]
		switch {
		case r.Stage == model.StageSample && r.Algo == "fps" && fps == nil:
			fps = r
		case r.Stage == model.StageNeighbor && r.Algo == "morton-window" && window == nil:
			window = r
		case r.Stage == model.StageNeighbor && strings.HasPrefix(r.Algo, "knn") && !r.Reused && knn == nil:
			knn = r
		case r.Stage == model.StageFeature:
			gflop += 2 * float64(r.Q) * float64(r.CIn) * float64(r.COut) / 1e9
			bytes += float64(r.Q) * float64(r.CIn+r.COut) * 4
			if biggest == nil || r.Q*r.CIn*r.COut > biggest.Q*biggest.CIn*biggest.COut {
				biggest = r
			}
		}
	}
	o.metrics["tensor.feature_gflop_per_frame"] = gflop
	o.metrics["tensor.feature_bytes_per_frame"] = bytes

	if fps != nil {
		pts := strided(sorted, fps.N)
		if o.metrics["sample.fps_ms"], err = timeReps(kernelReps, func() error {
			_, err := sample.FPSIndexes(pts, fps.Q, 0)
			return err
		}); err != nil {
			return err
		}
	}
	if window != nil {
		pts := strided(sorted, window.N)
		q := core.SamplePositions(len(pts), window.Q)
		s := core.WindowSearcher{W: window.W}
		if o.metrics["neighbor.window_ms"], err = timeReps(kernelReps, func() error {
			_, err := s.SearchPositions(pts, q, window.K)
			return err
		}); err != nil {
			return err
		}
	}
	if knn != nil {
		pts := strided(sorted, knn.N)
		queries := strided(pts, knn.Q)
		if o.metrics["neighbor.knn_ms"], err = timeReps(kernelReps, func() error {
			_, err := neighbor.BruteKNN{}.Search(pts, queries, knn.K)
			return err
		}); err != nil {
			return err
		}
		o.detail["knn_probe_shape"] = fmt.Sprintf("%s N=%d Q=%d K=%d (3-D points)", knn.Algo, knn.N, knn.Q, knn.K)
	}
	if biggest == nil {
		return fmt.Errorf("trace has no feature stage")
	}
	return probeMatMul(o, biggest, backend)
}

// strided picks n points spread evenly over pts (all of them when n ≥ len).
func strided(pts []geom.Point3, n int) []geom.Point3 {
	if n >= len(pts) {
		return pts
	}
	out := make([]geom.Point3, n)
	for i, j := range sample.UniformIndexes(len(pts), n) {
		out[i] = pts[j]
	}
	return out
}

// probeMatMul times the inference backend's MatMulInto at the largest
// feature shape (rows Q, CIn → COut) and the training kernel MatMulATInto
// at the same layer's weight-gradient shape.
func probeMatMul(o *outcome, r *model.StageRecord, backend string) error {
	be, err := tensor.NewBackend(backend)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(modelSeed))
	a, b, g := randMatrix(rng, r.Q, r.CIn), randMatrix(rng, r.CIn, r.COut), randMatrix(rng, r.Q, r.COut)
	out, dw := tensor.New(r.Q, r.COut), tensor.New(r.CIn, r.COut)
	t, err := timeReps(kernelReps, func() error { return be.MatMulInto(out, a, b) })
	if err != nil {
		return err
	}
	o.metrics["tensor.matmul_ms"] = t
	o.metrics["tensor.matmul_gflops"] = 2 * float64(r.Q) * float64(r.CIn) * float64(r.COut) / (t * 1e6)
	if o.metrics["tensor.matmulat_ms"], err = timeReps(kernelReps, func() error { return tensor.MatMulATInto(dw, a, g) }); err != nil {
		return err
	}
	o.detail["matmul_shape"] = fmt.Sprintf("%dx%d · %dx%d (%s)", r.Q, r.CIn, r.CIn, r.COut, be.Name())
	return nil
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return m
}

// probeTrain times one training step's parts on a fresh net of the
// workload: forward with train=true, backward, and the Adam update.
func probeTrain(o *outcome, w pipeline.Workload, opts pipeline.Options, clouds []*geom.Cloud) error {
	net, err := pipeline.Build(w, pipeline.SN, opts)
	if err != nil {
		return err
	}
	opt := nn.NewAdam(1e-3)
	var fwd, bwd, step []float64
	for i := 0; i <= trainReps; i++ { // the first step warms up and is not kept
		c := clouds[i%len(clouds)]
		t0 := time.Now()
		out, err := net.Forward(c, nil, true)
		if err != nil {
			return err
		}
		t1 := time.Now()
		_, grad, err := nn.CrossEntropy(out.Logits, probeLabels(out))
		if err != nil {
			return err
		}
		t2 := time.Now()
		if err := net.Backward(grad); err != nil {
			return err
		}
		t3 := time.Now()
		opt.Step(net.Params())
		t4 := time.Now()
		nn.ZeroGrads(net.Params())
		if i > 0 {
			fwd = append(fwd, ms(t1.Sub(t0)))
			bwd = append(bwd, ms(t3.Sub(t2)))
			step = append(step, ms(t4.Sub(t3)))
		}
	}
	o.metrics["nn.forward_ms"] = median(fwd)
	o.metrics["nn.backward_ms"] = median(bwd)
	o.metrics["nn.optimizer_ms"] = median(step)
	return nil
}

// probeLabels supplies targets for a timing-only loss: the per-point labels
// the forward pass carried through, or class 0.
func probeLabels(out *model.Output) []int32 {
	if out.Logits.Rows > 1 && len(out.Labels) == out.Logits.Rows {
		return out.Labels
	}
	return make([]int32, out.Logits.Rows)
}
