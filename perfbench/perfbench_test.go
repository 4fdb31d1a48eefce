package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func TestSameSeedSameInputs(t *testing.T) {
	w, _, err := w1()
	if err != nil {
		t.Fatal(err)
	}
	a := schedule(7, overloadTraffic, 3*time.Second)
	if !reflect.DeepEqual(a, schedule(7, overloadTraffic, 3*time.Second)) {
		t.Fatal("one seed gave two different schedules")
	}
	if want := int(overloadTraffic.Rate * 3); len(a) != want {
		t.Fatalf("schedule offers %d requests, want %d", len(a), want)
	}
	if reflect.DeepEqual(a, schedule(8, overloadTraffic, 3*time.Second)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At || a[i].At >= 3*time.Second {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, a[i].At)
		}
	}

	p1, err := framePool(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := framePool(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if !reflect.DeepEqual(p1[i].Points, p2[i].Points) {
			t.Fatalf("pool frame %d differs between two draws of one seed", i)
		}
	}
	p3, err := framePool(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1[0].Points, p3[0].Points) {
		t.Fatal("seeds 7 and 8 gave the same first pool frame")
	}

	o1, o2 := frameOrder(7), frameOrder(7)
	for i := 0; i < 100; i++ {
		if o1() != o2() {
			t.Fatalf("frame order diverged at draw %d", i)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, cap := range []float64{99.9, 99, 95, 90} {
		for n := 1; n <= 3000; n++ {
			p, ok := tailPercentile(n, cap)
			if p > cap {
				t.Fatalf("n=%d cap=%v: picked p%v above the cap", n, cap, p)
			}
			beyond := n - rank(n, p)
			if ok != (beyond >= minBeyond) {
				t.Fatalf("n=%d cap=%v: p%v leaves %d beyond, ok=%v", n, cap, p, beyond, ok)
			}
			if !ok {
				continue
			}
			// No higher ladder percentile within the cap would also qualify.
			for _, q := range tailLadder {
				if q > p && q <= cap && n-rank(n, q) >= minBeyond {
					t.Fatalf("n=%d cap=%v: picked p%v but p%v also keeps %d beyond", n, cap, p, q, minBeyond)
				}
			}
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, _ := tailPercentile(len(xs), 95)
	v := percentile(xs, p)
	var beyond int
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("p%v of 200 samples is %v with %d samples beyond", p, v, beyond)
	}
}

func TestOutputCheckRejectsPerturbedLogit(t *testing.T) {
	ref := tensor.New(4, 3)
	for i := range ref.Data {
		ref.Data[i] = float32(i) - 5.5
	}
	same := &model.Output{Logits: ref.Clone()}
	if err := checkExact(same, ref); err != nil {
		t.Fatalf("identical logits rejected: %v", err)
	}
	bumped := ref.Clone()
	bumped.Data[7] = math.Nextafter32(bumped.Data[7], float32(math.Inf(1)))
	if checkExact(&model.Output{Logits: bumped}, ref) == nil {
		t.Fatal("a logit one ulp off passed the exact check")
	}
	if checkExact(&model.Output{Logits: tensor.New(3, 4)}, ref) == nil {
		t.Fatal("a wrong shape passed the exact check")
	}
	if checkExact(nil, ref) == nil {
		t.Fatal("a missing output passed the exact check")
	}

	if err := checkShapeFinite(&model.Output{Logits: bumped}, ref); err != nil {
		t.Fatalf("finite degraded logits rejected: %v", err)
	}
	nan := ref.Clone()
	nan.Data[2] = float32(math.NaN())
	if checkShapeFinite(&model.Output{Logits: nan}, ref) == nil {
		t.Fatal("a NaN logit passed the degraded-tier check")
	}
	inf := ref.Clone()
	inf.Data[0] = float32(math.Inf(-1))
	if checkServed(serve.Result{Tier: 3, Output: &model.Output{Logits: inf}}, ref) == nil {
		t.Fatal("an infinite logit passed the degraded-tier check")
	}
	if checkServed(serve.Result{Tier: 0, Output: &model.Output{Logits: bumped}}, ref) == nil {
		t.Fatal("a tier-0 response was not held to the exact check")
	}
}

func TestAccountingRejectsDoctoredCount(t *testing.T) {
	before := serve.RouterStats{Offered: 5, Completed: 5}
	tl := tally{Offered: 20, Good: 9, Late: 1, CheckFailed: 1, Throttled: 3, Shed: 2, QueueFull: 1, Deadline: 2, Errored: 1}
	after := serve.RouterStats{
		Offered: 25, Completed: 5 + 11, Failed: 3,
		ShedThrottled: 3, ShedOverload: 2, ShedQueueFull: 1,
	}
	if err := checkAccounting(tl, before, after); err != nil {
		t.Fatalf("consistent accounting rejected: %v", err)
	}

	doctored := tl
	doctored.Good++
	if checkAccounting(doctored, before, after) == nil {
		t.Fatal("a tally whose classes exceed offered passed")
	}
	doctored = tl
	doctored.Shed, doctored.Throttled = doctored.Shed+1, doctored.Throttled-1
	if checkAccounting(doctored, before, after) == nil {
		t.Fatal("a tally disagreeing with the router's shed counters passed")
	}
	lying := after
	lying.Completed++
	lying.Failed--
	if checkAccounting(tl, before, lying) == nil {
		t.Fatal("router counters disagreeing with the tally passed")
	}
	broken := after
	broken.Offered++
	if checkAccounting(tl, before, broken) == nil {
		t.Fatal("a snapshot violating the conservation law passed")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
