package pipeline

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// tinyWorkload is a scaled-down DGCNN row: replica construction and one
// forward stay fast while exercising every knob the ladder touches.
func tinyWorkload() Workload {
	return Workload{
		ID: "T", Model: "DGCNN(c)", Dataset: "ModelNet40",
		Points: 128, Batch: 1, Task: model.TaskClassification,
		Arch: ArchDGCNN, Classes: 10, K: 4,
	}
}

func sharesAllParams(t *testing.T, ref, n Net) {
	t.Helper()
	rp, np := ref.Params(), n.Params()
	if len(rp) != len(np) || len(rp) == 0 {
		t.Fatalf("param count %d vs %d", len(rp), len(np))
	}
	for i := range rp {
		if rp[i].Value != np[i].Value {
			t.Fatalf("param %d (%s) not shared", i, rp[i].Name)
		}
		if rp[i].Grad == np[i].Grad {
			t.Fatalf("param %d (%s) shares gradients; only values may alias", i, rp[i].Name)
		}
	}
}

func TestRebuildReplicaSharesParams(t *testing.T) {
	w := tinyWorkload()
	ref, err := Build(w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reb, err := RebuildReplica(ref, w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reb == ref {
		t.Fatal("rebuild returned the reference net")
	}
	sharesAllParams(t, ref, reb)
	// The rebuilt replica must actually serve.
	frame, err := Frame(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunInto(reb, frame, &model.Trace{}, nil, SimConfig(w, SN, Options{})); err != nil {
		t.Fatalf("rebuilt replica forward: %v", err)
	}
	if _, err := RebuildReplica(nil, w, SN, Options{}); err == nil {
		t.Fatal("nil reference accepted")
	}
}

func TestDegradeTiersAreCumulativeAndClamped(t *testing.T) {
	w := tinyWorkload()
	base := Options{}
	base.defaults(w)
	tiers := DegradeTiers(w, Options{}, MaxDegradeTiers+5)
	if len(tiers) != MaxDegradeTiers {
		t.Fatalf("got %d tiers, want clamp at %d", len(tiers), MaxDegradeTiers)
	}
	if tiers[0].WindowW >= base.WindowW || tiers[0].WindowW < w.K {
		t.Fatalf("tier 1 window %d, want < %d and ≥ k=%d", tiers[0].WindowW, base.WindowW, w.K)
	}
	if tiers[0].SampleFrac != base.SampleFrac {
		t.Fatal("tier 1 must not touch the sample budget yet")
	}
	if tiers[0].SampleArch != sample.ArchFPS {
		t.Fatal("tier 1 must not touch the sampler arch yet")
	}
	if tiers[1].SampleArch != sample.ArchBucketFPS || tiers[1].SampleQuality != 0.5 {
		t.Fatalf("tier 2 sampler %v@%v, want bucketfps@0.5", tiers[1].SampleArch, tiers[1].SampleQuality)
	}
	if tiers[1].SampleFrac != base.SampleFrac {
		t.Fatal("tier 2 must not touch the sample budget yet")
	}
	if tiers[1].WindowW != tiers[0].WindowW {
		t.Fatal("tier 2 must keep tier 1's window (steps are cumulative)")
	}
	if tiers[2].SampleFrac >= base.SampleFrac || tiers[2].SampleFrac < 0.05 {
		t.Fatalf("tier 3 sample budget %v, want < %v with floor 0.05", tiers[2].SampleFrac, base.SampleFrac)
	}
	if tiers[2].SampleArch != sample.ArchBucketFPS {
		t.Fatal("tier 3 must keep tier 2's sampler arch (steps are cumulative)")
	}
	if tiers[3].ReuseDistance != base.ReuseDistance+1 || tiers[3].PPReuseDistance != base.PPReuseDistance+1 {
		t.Fatalf("tier 4 reuse %d/%d, want base+1", tiers[3].ReuseDistance, tiers[3].PPReuseDistance)
	}
	// The ladder trades approximation knobs only: every rung keeps the base
	// compute backend.
	for i, tier := range DegradeTiers(w, Options{Backend: tensor.BackendBlocked}, MaxDegradeTiers) {
		if tier.Backend != tensor.BackendBlocked {
			t.Fatalf("tier %d backend %q, want the base %q", i+1, tier.Backend, tensor.BackendBlocked)
		}
	}
	if labels := DegradeLabels(); len(labels) != len(tiers) {
		t.Fatalf("%d ladder labels for %d rungs", len(labels), len(tiers))
	}
	if got := DegradeTiers(w, Options{}, 0); got != nil {
		t.Fatalf("n=0 produced %d tiers", len(got))
	}
	if got := DegradeTiers(w, Options{}, 1); len(got) != 1 {
		t.Fatalf("n=1 produced %d tiers", len(got))
	}
}

func TestSampleArchReachesBucketFPS(t *testing.T) {
	// Options.SampleArch must flow through the ArchBuilder registry into the
	// SA modules: under the baseline config (no Morton stride) every SA
	// sample stage should report the bucketed sampler in its trace.
	w := Workload{
		ID: "T2", Model: "PointNet++(s)", Dataset: "ModelNet40",
		Points: 256, Batch: 1, Task: model.TaskSegmentation,
		Arch: ArchPointNetPP, Classes: 10, K: 4,
	}
	opts := Options{Depth: 2, SampleArch: sample.ArchBucketFPS, SampleQuality: 0.75}
	net, err := Build(w, Baseline, opts)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Frame(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	trace := &model.Trace{}
	if _, _, err := RunInto(net, frame, trace, nil, SimConfig(w, Baseline, opts)); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, r := range trace.Records {
		if r.Stage != model.StageSample {
			continue
		}
		samples++
		if r.Algo != "bucketfps" {
			t.Fatalf("SA%d sample algo %q, want bucketfps", r.Layer, r.Algo)
		}
	}
	if samples != opts.Depth {
		t.Fatalf("saw %d sample stages, want %d", samples, opts.Depth)
	}
}

func TestTieredReplicasShareOneParamSet(t *testing.T) {
	w := tinyWorkload()
	const workers = 2
	tiers := DegradeTiers(w, Options{}, 2)
	rows, err := TieredReplicas(w, SN, Options{}, workers, tiers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(tiers) {
		t.Fatalf("got %d rows, want %d", len(rows), 1+len(tiers))
	}
	seen := map[Net]bool{}
	for ri, row := range rows {
		if len(row) != workers {
			t.Fatalf("row %d has %d nets, want %d", ri, len(row), workers)
		}
		for wi, n := range row {
			if n == nil {
				t.Fatalf("nil net at row %d worker %d", ri, wi)
			}
			if seen[n] {
				t.Fatalf("net at row %d worker %d duplicated", ri, wi)
			}
			seen[n] = true
			if ri == 0 && wi == 0 {
				continue
			}
			sharesAllParams(t, rows[0][0], n)
		}
	}
	// A degraded replica serves the same frame the full one does.
	frame, err := Frame(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []Net{rows[0][0], rows[len(rows)-1][workers-1]} {
		if _, _, err := RunInto(n, frame, &model.Trace{}, nil, SimConfig(w, SN, Options{})); err != nil {
			t.Fatalf("tiered replica forward: %v", err)
		}
	}
}

func TestFleetReplicasShareOneParamSet(t *testing.T) {
	w := tinyWorkload()
	const engines, workers = 3, 2
	tiers := DegradeTiers(w, Options{}, 1)
	fleet, err := FleetReplicas(w, SN, Options{}, engines, workers, tiers)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != engines {
		t.Fatalf("got %d engines, want %d", len(fleet), engines)
	}
	ref := fleet[0][0][0]
	seen := map[Net]bool{}
	for ei, rows := range fleet {
		if len(rows) != 1+len(tiers) {
			t.Fatalf("engine %d has %d rows, want %d", ei, len(rows), 1+len(tiers))
		}
		for ri, row := range rows {
			if len(row) != workers {
				t.Fatalf("engine %d row %d has %d nets, want %d", ei, ri, len(row), workers)
			}
			for wi, n := range row {
				if seen[n] {
					t.Fatalf("net at engine %d row %d worker %d duplicated", ei, ri, wi)
				}
				seen[n] = true
				if n == ref {
					continue
				}
				// One weight set per process, fleet-wide: every net on every
				// engine aliases the reference parameters.
				sharesAllParams(t, ref, n)
			}
		}
	}
	// A replica from the last engine's degraded row serves a frame.
	frame, err := Frame(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := fleet[engines-1][len(tiers)][workers-1]
	if _, _, err := RunInto(last, frame, &model.Trace{}, nil, SimConfig(w, SN, Options{})); err != nil {
		t.Fatalf("fleet replica forward: %v", err)
	}
	if _, err := FleetReplicas(w, SN, Options{}, 0, workers, tiers); err == nil {
		t.Fatal("zero engines accepted")
	}
}
