// Command perfbench is the repository benchmark. It drives the real serving
// engine and fleet router, the inference pipeline and the training loop from
// outside, through their exported functions only, checks every output, and
// prints one JSON result line.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload pp-stream --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package into .bench_build and keeps the Go caches there.
//
// Workloads (BENCHMARK.json gives the reason for each):
//
//	pp-stream    one closed-loop client, one serve.Engine with one worker and
//	             MaxBatch 1, W1 PointNet++(s) S+N 8192-point frames
//	pp-overload  the same frames, open loop at a fixed rate above two workers'
//	             capacity, through serve.Router over two engines with the full
//	             degradation ladder, QoS, shedding, retries and hedging
//	dgcnn-train  train.Run epochs of W3 DGCNN(c) S+N over a 1024-point set
//
// --trace 0 measures for --seconds and prints the end-to-end metrics. --trace
// 1 runs the workload twice for half the window each, untraced and then
// traced, prints the per-layer metrics and the tracing overhead (the change
// in goodput between the two halves), and writes the spans to
// .bench_build/traces.
//
// The line before the result is a stamp: environment, sample counts, the
// tail percentile used, validity and, for pp-overload, the per-class
// accounting. A run is invalid, and says why in the stamp, when it did not
// exercise what its workload is for (pp-overload: the ladder never stepped
// down, the shed controller never engaged, or the generator fell behind its
// schedule; any workload: too few latency samples for the tail rule).
// Operations whose output check fails count as failed; the command then
// still prints its result, with "correct" false, and exits with status 1, as
// it does when the router's accounting does not balance. It exits with
// status 2, printing no result, when it cannot run at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them (see BENCHMARK.json for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, prefixed by the repository module
// they measure. A workload that does not exercise a layer reports 0 for it
// and lists it under not_exercised in the stamp line.
var perLayer = []metricDef{
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.tail", "ms"},
	{"serve.service_ms.p50", "ms"},
	{"serve.submit_overhead_us.p50", "us"},
	{"serve.batch_size.mean", "count"},
	{"serve.tier_frac.t0", "ratio"},
	{"serve.tier_frac.t1", "ratio"},
	{"serve.tier_frac.t2", "ratio"},
	{"serve.tier_frac.t3", "ratio"},
	{"serve.tier_frac.t4", "ratio"},
	{"serve.tier_frac.t5", "ratio"},
	{"serve.step_downs", "count"},
	{"serve.step_ups", "count"},
	{"serve.shed_frac", "ratio"},
	{"serve.deadline_fail_frac", "ratio"},
	{"serve.retries", "count"},
	{"serve.hedges", "count"},
	{"serve.hedge_win_ratio", "ratio"},
	{"metrics.stats_snapshot_us", "us"},
	{"pipeline.frame_ms.p50", "ms"},
	{"pipeline.allocs_per_frame", "count"},
	{"pipeline.bytes_per_frame", "bytes"},
	{"model.stage_ms.sample", "ms"},
	{"model.stage_ms.neighbor", "ms"},
	{"model.stage_ms.group", "ms"},
	{"model.stage_ms.feature", "ms"},
	{"model.stage_ms.interp", "ms"},
	{"model.stage_ms.structurize", "ms"},
	{"morton.structurize_ms", "ms"},
	{"sample.fps_ms", "ms"},
	{"neighbor.window_ms", "ms"},
	{"neighbor.knn_ms", "ms"},
	{"tensor.feature_gflop_per_frame", "GFLOP"},
	{"tensor.feature_bytes_per_frame", "bytes"},
	{"tensor.matmul_ms", "ms"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.matmulat_ms", "ms"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.optimizer_ms", "ms"},
	{"edgesim.modelled_frame_ms", "model-ms"},
	{"edgesim.stage_share_gap", "ratio"},
	{"edgesim.fig3_split_agrees", "count"},
	{"loadgen.shed_frac_gap", "ratio"},
	{"loadgen.latency_tail_gap_ms", "ms"},
	{"process.cpu_util", "ratio"},
	{"process.gc_cpu_frac", "ratio"},
	{"gen.lag_ms.tail", "ms"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed   int64
	window time.Duration // measured window of one phase
	trace  bool
}

// outcome is a workload's measurement before it is printed.
type outcome struct {
	attempted, failed int
	problems          []string // reasons the run is not correct beyond failed operations
	invalid           []string // reasons the run does not measure what its workload claims
	metrics           map[string]float64
	samples           map[string]int
	detail            map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, detail: map[string]any{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) invalidate(format string, args ...any) {
	o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
}

// tailCap is the tail percentile BENCHMARK.json records for every workload;
// a run reports a lower one only when fewer than minBeyond samples lie
// beyond it.
const tailCap = 95

var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"pp-stream":   runStream,
	"pp-overload": runOverload,
	"dgcnn-train": runTrain,
}

// setupReps is how many times a run builds its fixture; setup_s is the
// median, so work moved into set-up shows without one slow build dominating.
const setupReps = 3

// setupN builds a fixture setupReps times and returns the last keep of them
// with the median build time in seconds. Each surplus fixture is closed, and
// the heap collected, before the next build starts, so only the kept ones
// count toward peak memory.
func setupN[T any](build func() (T, error), closeFn func(T), keep int) ([]T, float64, error) {
	var kept []T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		f, err := build()
		if err != nil {
			for _, k := range kept {
				closeFn(k)
			}
			return nil, 0, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i < setupReps-keep {
			closeFn(f)
			runtime.GC()
			continue
		}
		kept = append(kept, f)
	}
	runtime.GC() // start the measured window from a collected heap
	return kept, median(secs), nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: pp-stream | pp-overload | dgcnn-train")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, names)
		return 2
	}
	if *seconds < 2 || *seconds > 600 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be in [2, 600], got %d\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if cfg.trace {
		cfg.window /= 2
	}
	st := newStamp(*workload, *seed, *seconds, *trace)
	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	out.metrics["peak_rss_mb"] = peakRSSMB()
	res, info, err := finish(out, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	info["stamp"] = st
	line, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, r := range out.invalid {
		fmt.Fprintf(stderr, "perfbench: %s: invalid run: %s\n", *workload, r)
	}
	if !res.Correct {
		for _, p := range out.problems {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", *workload, p)
		}
		if out.failed > 0 {
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed\n", *workload, out.failed, out.attempted)
		}
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish selects the metric set for the mode and builds the result and stamp
// lines. Every end-to-end metric must have been measured; per-layer metrics
// a workload does not exercise read 0.
func finish(o *outcome, trace bool) (result, map[string]any, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			if !trace {
				return result{}, nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	info := map[string]any{
		"samples":  o.samples,
		"problems": o.problems,
		"valid":    len(o.invalid) == 0,
		"invalid":  o.invalid,
	}
	if trace {
		info["not_exercised"] = missing
	}
	for k, v := range o.detail {
		info[k] = v
	}
	return res, info, nil
}
