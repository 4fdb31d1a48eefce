package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/edgesim"
	"repro/internal/model"
	"repro/internal/tensor"
)

// blockedLogitTol is the blocked backend's logit tolerance against the naive
// kernels on the golden workloads.
//
// The blocked backend preserves the naive per-cell accumulation order (one
// accumulator per output cell, k ascending), so it is bit-identical except
// for ±0 edge cases; 1e-5 is the documented contract, matching the tensor
// property tests.
const blockedLogitTol = 1e-5

// TestBackendNamesPinned pins the backend registry the serve ladder and the
// cmd -backend flags depend on: exactly these two, in sorted order.
func TestBackendNamesPinned(t *testing.T) {
	got := tensor.BackendNames()
	want := []string{tensor.BackendBlocked, tensor.BackendNaive}
	if len(got) != len(want) {
		t.Fatalf("BackendNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BackendNames() = %v, want %v", got, want)
		}
	}
}

// TestBuildRejectsUnknownBackend pins the descriptive error the cmd flags
// surface for a typo'd -backend value.
func TestBuildRejectsUnknownBackend(t *testing.T) {
	w := goldenScale(Workloads[0])
	opts := goldenOptions()
	opts.Backend = "fp16"
	_, err := Build(w, Baseline, opts)
	if err == nil {
		t.Fatal("unknown backend accepted at Build")
	}
	for _, frag := range []string{"fp16", "registered:", tensor.BackendNaive, tensor.BackendBlocked} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

// maxLogitDiff returns the largest element-wise |a−b| between two matrices of
// identical shape.
func maxLogitDiff(t *testing.T, a, b *tensor.Matrix) float64 {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("logit shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var max float64
	for i, v := range a.Data {
		d := float64(v - b.Data[i])
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// TestGoldenBackendParity runs every golden workload × config under the
// blocked backend and compares eval logits against the naive build.
// Deterministic weight init from Options.Seed means two nets built with the
// same options hold identical weights, so any logit difference is purely the
// backend's kernels. Together with TestGoldenLogits (which pins the naive
// path to fixtures bit-for-bit) this is the backend-parity gate CI runs.
func TestGoldenBackendParity(t *testing.T) {
	for _, w := range Workloads {
		for _, kind := range []ConfigKind{Baseline, SN} {
			w, kind := goldenScale(w), kind
			t.Run(fmt.Sprintf("%s_%s", w.ID, kind), func(t *testing.T) {
				ref, err := Build(w, kind, goldenOptions())
				if err != nil {
					t.Fatal(err)
				}
				cloud, err := Frame(w, goldenFrameSeed)
				if err != nil {
					t.Fatal(err)
				}
				refOut, err := ref.Forward(cloud, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				opts := goldenOptions()
				opts.Backend = tensor.BackendBlocked
				net, err := Build(w, kind, opts)
				if err != nil {
					t.Fatal(err)
				}
				out, err := net.Forward(cloud, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				d := maxLogitDiff(t, refOut.Logits, out.Logits)
				t.Logf("blocked: max |Δlogit| = %g", d)
				if d > blockedLogitTol {
					t.Fatalf("blocked diverged from naive by %g (tolerance %g)", d, blockedLogitTol)
				}
				// Steady state: a second frame, on a warm workspace, must not
				// drift.
				out2, err := net.Forward(cloud, nil, false)
				if err != nil {
					t.Fatalf("second frame: %v", err)
				}
				if d2 := maxLogitDiff(t, out.Logits, out2.Logits); d2 != 0 {
					t.Fatalf("second frame drifted by %g from the first", d2)
				}
			})
		}
	}
}

// Per-backend frame benchmarks on the Fig. 3 hot path — the numbers
// scripts/bench_backend.sh commits to BENCH_backend.json.

func benchFrameBackend(b *testing.B, backend string) {
	b.Helper()
	w := Workload{
		ID: "bench", Dataset: "S3DIS", Points: 512, Batch: 8,
		Arch: ArchPointNetPP, Task: model.TaskSegmentation, Classes: 8, K: 8,
	}
	opts := Options{BaseWidth: 8, Depth: 3, Modules: 3, Seed: 9, Backend: backend}
	net, err := Build(w, Baseline, opts)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := Frame(w, 9)
	if err != nil {
		b.Fatal(err)
	}
	dev := edgesim.JetsonAGXXavier()
	cfg := SimConfig(w, Baseline, opts)
	if _, _, _, err := Run(net, frame, dev, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Run(net, frame, dev, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineFrameBackendNaive(b *testing.B)   { benchFrameBackend(b, tensor.BackendNaive) }
func BenchmarkPipelineFrameBackendBlocked(b *testing.B) { benchFrameBackend(b, tensor.BackendBlocked) }
