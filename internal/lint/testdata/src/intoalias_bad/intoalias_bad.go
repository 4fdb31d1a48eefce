// Package intoalias_bad aliases *Into destinations with their sources and
// mismatches compile-time-constant shapes.
package intoalias_bad

import (
	"repro/internal/tensor"
)

// Alias reuses an input as the destination.
func Alias(a, b *tensor.Matrix) error {
	return tensor.MatMulInto(a, a, b) // want `MatMulInto destination a aliases an input`
}

// GatherSelf gathers a matrix into itself.
func GatherSelf(m *tensor.Matrix, idx []int) error {
	return tensor.GatherInto(m, m, idx) // want `GatherInto destination m aliases an input`
}

// Shapes gets the constant dimensions wrong.
func Shapes() error {
	a := tensor.New(4, 3)
	b := tensor.New(3, 5)
	out := tensor.New(4, 4)
	if err := tensor.MatMulInto(out, a, b); err != nil { // want `MatMulInto destination is 4x4 but the product is 4x5`
		return err
	}
	c := tensor.New(2, 3)
	d := tensor.New(4, 3)
	dst := tensor.New(2, 3)
	return tensor.MatMulInto(dst, c, d) // want `MatMulInto inputs have incompatible shapes 2x3 and 4x3`
}

// ConcatShapes sizes the fused buffer one column short.
func ConcatShapes(ws *tensor.Workspace) error {
	a := ws.Get(4, 2)
	b := ws.Get(4, 3)
	out := ws.Get(4, 4)
	err := tensor.ConcatInto(out, a, b) // want `ConcatInto destination is 4x4 but \[a\|b\] is 4x5`
	ws.Put(out)
	ws.Put(b)
	ws.Put(a)
	return err
}

// BackendAlias dispatches through the tensor.Backend interface; the analyzer
// resolves the interface method to its declaring package, so backend calls
// are checked exactly like the package-level kernels.
func BackendAlias(be tensor.Backend, a, b *tensor.Matrix) error {
	return be.MatMulInto(a, a, b) // want `MatMulInto destination a aliases an input`
}

// BackendShapes mismatches constant shapes through a backend value and
// through the package concat.
func BackendShapes(be tensor.Backend) error {
	a := tensor.New(4, 3)
	b := tensor.New(3, 5)
	out := tensor.New(4, 4)
	if err := be.MatMulInto(out, a, b); err != nil { // want `MatMulInto destination is 4x4 but the product is 4x5`
		return err
	}
	c := tensor.New(4, 2)
	d := tensor.New(4, 3)
	fused := tensor.New(4, 4)
	return tensor.ConcatInto(fused, c, d) // want `ConcatInto destination is 4x4 but \[a\|b\] is 4x5`
}
