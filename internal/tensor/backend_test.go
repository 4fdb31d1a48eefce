package tensor

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	want := []string{BackendBlocked, BackendNaive}
	if len(names) != len(want) {
		t.Fatalf("registered backends %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered backends %v, want %v", names, want)
		}
	}
	for _, n := range names {
		be, err := NewBackend(n)
		if err != nil {
			t.Fatalf("NewBackend(%q): %v", n, err)
		}
		if be.Name() != n {
			t.Fatalf("NewBackend(%q).Name() = %q", n, be.Name())
		}
	}
	// The empty name resolves to the default.
	be, err := NewBackend("")
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != DefaultBackend {
		t.Fatalf("NewBackend(\"\").Name() = %q, want %q", be.Name(), DefaultBackend)
	}
	// Unknown names fail with the registered list (the RegisterArch error
	// style the cmd flags surface to users).
	_, err = NewBackend("tensor-core")
	if err == nil {
		t.Fatal("unregistered backend name accepted")
	}
	for _, frag := range append([]string{"tensor-core", "registered:"}, want...) {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

// randomMatrix fills a rows×cols matrix from rng with values in [-2, 2).
func randomMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.Float64()*4 - 2)
	}
	return m
}

// maxAbsDiff returns the largest element-wise |a−b|.
func maxAbsDiff(a, b *Matrix) float64 {
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

// TestQuickBlockedMatMulMatchesNaive is the satellite property test: across
// random shapes — including ragged edges smaller than one 4×4 tile — the
// blocked MatMul stays within 1e-5 of the reference kernel. (The
// tiled kernel preserves the per-cell accumulation order, so in practice the
// match is bit-exact; 1e-5 is the documented contract.)
func TestQuickBlockedMatMulMatchesNaive(t *testing.T) {
	be := Blocked()
	f := func(mSeed int64, m8, k8, n8 uint8) bool {
		rng := rand.New(rand.NewSource(mSeed))
		// 1..68: covers sub-tile shapes (1–3), exact tiles, and tile+ragged.
		m := int(m8%68) + 1
		k := int(k8%68) + 1
		n := int(n8%68) + 1
		a := randomMatrix(m, k, rng)
		b := randomMatrix(k, n, rng)
		ref := New(m, n)
		got := New(m, n)
		if err := MatMulInto(ref, a, b); err != nil {
			t.Fatal(err)
		}
		if err := be.MatMulInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ref, got); d > 1e-5 {
			t.Logf("MatMul %dx%d · %dx%d diff %g", m, k, k, n, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBackendValidationMatchesReference pins that every backend rejects the
// same shape and aliasing misuse the reference kernels do.
func TestBackendValidationMatchesReference(t *testing.T) {
	for _, name := range BackendNames() {
		be, err := NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		a := New(2, 3)
		b := New(3, 4)
		if err := be.MatMulInto(New(2, 5), a, b); err == nil {
			t.Fatalf("%s: bad destination shape accepted", name)
		}
		if err := be.MatMulInto(a, a, b); err == nil {
			t.Fatalf("%s: aliased destination accepted", name)
		}
		out := New(2, 4)
		if err := be.MatMulInto(out, a, b); err != nil {
			t.Fatalf("%s: valid matmul rejected: %v", name, err)
		}
	}
}

// TestBlockedBackendConcurrent exercises the shared blocked instance from
// several goroutines at once (each with private outputs) — the weight-sharing
// replica pattern — under the race detector in CI's backend-parity stage.
func TestBlockedBackendConcurrent(t *testing.T) {
	be := Blocked()
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(64, 32, rng)
	b := randomMatrix(32, 48, rng)
	ref := New(64, 48)
	if err := MatMulInto(ref, a, b); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([]*Matrix, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := New(64, 48)
			for it := 0; it < 10; it++ {
				if err := be.MatMulInto(out, a, b); err != nil {
					errs[g] = err
					return
				}
			}
			outs[g] = out
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if d := maxAbsDiff(ref, outs[g]); d > 1e-5 {
			t.Fatalf("goroutine %d diverged by %g", g, d)
		}
	}
}

// --- Fig. 3 microbenchmarks across backends (scripts/bench_backend.sh) ---

// benchBackendMatMul times the shared-MLP shape of the feature-compute stage:
// many point rows through a square-ish weight panel.
func benchBackendMatMul(b *testing.B, name string) {
	be, err := NewBackend(name)
	if err != nil {
		b.Fatal(err)
	}
	x := benchMatrix(2048, 128, 1)
	w := benchMatrix(128, 128, 2)
	out := New(2048, 128)
	// Warm-up, so the loop times the steady state.
	if err := be.MatMulInto(out, x, w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.MatMulInto(out, x, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackendMatMulNaive(b *testing.B)   { benchBackendMatMul(b, BackendNaive) }
func BenchmarkBackendMatMulBlocked(b *testing.B) { benchBackendMatMul(b, BackendBlocked) }
