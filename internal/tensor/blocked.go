package tensor

import "repro/internal/parallel"

// blockedBackend is the cache-blocked fp32 backend: MatMulInto runs a
// register-tiled kernel (4 rows of a × 4 values of k per tile) that keeps the
// per-cell accumulation order identical to the naive ikj loop — k strictly
// ascending, one accumulator per output cell — so results match the reference
// backend bit-for-bit while touching each output row a quarter as often. Rows
// are distributed across workers with internal/parallel exactly like the
// naive kernels, so the parallel split never changes numerics either.
//
// Stateless and safe for concurrent use by weight-sharing replicas.
type blockedBackend struct{}

var blockedShared Backend = blockedBackend{}

// Blocked returns the shared cache-blocked backend.
func Blocked() Backend { return blockedShared }

func (blockedBackend) Name() string { return BackendBlocked }

// MatMulInto computes a·b into out with the tiled kernel. Validation matches
// the reference MatMulInto.
//
//edgepc:hotpath
func (blockedBackend) MatMulInto(out, a, b *Matrix) error {
	if err := checkMatMul(out, a, b); err != nil {
		return err
	}
	parallel.ForChunks(a.Rows, func(lo, hi int) {
		blockedMatMulRows(out, a, b, lo, hi)
	})
	return nil
}

// blockedMatMulRows runs the tiled a·b kernel over out rows [lo, hi).
//
//edgepc:hotpath
func blockedMatMulRows(out, a, b *Matrix, lo, hi int) {
	kc := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		ar0, ar1, ar2, ar3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		or0, or1, or2, or3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
		for j := range or0 {
			or0[j] = 0
			or1[j] = 0
			or2[j] = 0
			or3[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			a00, a01, a02, a03 := ar0[k], ar0[k+1], ar0[k+2], ar0[k+3]
			a10, a11, a12, a13 := ar1[k], ar1[k+1], ar1[k+2], ar1[k+3]
			a20, a21, a22, a23 := ar2[k], ar2[k+1], ar2[k+2], ar2[k+3]
			a30, a31, a32, a33 := ar3[k], ar3[k+1], ar3[k+2], ar3[k+3]
			for j, v0 := range b0 {
				v1, v2, v3 := b1[j], b2[j], b3[j]
				// Left-to-right evaluation keeps each cell's partial sums in
				// ascending-k order — the bit-identity invariant.
				or0[j] = or0[j] + a00*v0 + a01*v1 + a02*v2 + a03*v3
				or1[j] = or1[j] + a10*v0 + a11*v1 + a12*v2 + a13*v3
				or2[j] = or2[j] + a20*v0 + a21*v1 + a22*v2 + a23*v3
				or3[j] = or3[j] + a30*v0 + a31*v1 + a32*v2 + a33*v3
			}
		}
		for ; k < kc; k++ {
			br := b.Row(k)
			a0, a1, a2, a3 := ar0[k], ar1[k], ar2[k], ar3[k]
			for j, bv := range br {
				or0[j] += a0 * bv
				or1[j] += a1 * bv
				or2[j] += a2 * bv
				or3[j] += a3 * bv
			}
		}
	}
	// Ragged row remainder: one row at a time, k still tiled by 4.
	for ; i < hi; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := range or {
			or[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			a0, a1, a2, a3 := ar[k], ar[k+1], ar[k+2], ar[k+3]
			for j, v0 := range b0 {
				or[j] = or[j] + a0*v0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < kc; k++ {
			av := ar[k]
			for j, bv := range b.Row(k) {
				or[j] += av * bv
			}
		}
	}
}
