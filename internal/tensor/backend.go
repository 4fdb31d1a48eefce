package tensor

import (
	"fmt"
	"strings"
)

// Backend is a pluggable implementation of the one inference kernel whose
// implementations differ: the eval-path a·b product of nn.Linear. Everything
// else the hot path runs (gather, concat, pooling, bias) and the training
// kernels are the package functions. An implementation must honor the
// reference MatMulInto contract: identical shape/alias validation, the
// destination fully overwritten, and no retained references to caller
// buffers after the call returns — workspace buffers are recycled between
// frames.
//
// Numerics: the naive backend is the reference. blocked must stay within
// 1e-5 of it element-wise (in practice it preserves the per-cell accumulation
// order and is bit-identical). Training always runs the reference kernels —
// backends are an inference-only axis.
//
// Concurrency: both backends are stateless, and NewBackend returns one shared
// instance per name, safe for concurrent use by weight-sharing replicas.
type Backend interface {
	Name() string
	MatMulInto(out, a, b *Matrix) error
}

// Backend names.
const (
	BackendNaive   = "naive"
	BackendBlocked = "blocked"
)

// DefaultBackend is the backend an empty selection resolves to.
const DefaultBackend = BackendNaive

// NewBackend returns the named backend; the empty name selects
// DefaultBackend. Unknown names produce an error listing the known ones
// (mirroring pipeline.NewNet's unregistered-architecture error).
func NewBackend(name string) (Backend, error) {
	switch name {
	case "", BackendNaive:
		return Naive(), nil
	case BackendBlocked:
		return Blocked(), nil
	}
	return nil, fmt.Errorf("tensor: no backend registered for %q (registered: %s)", name, strings.Join(BackendNames(), ", "))
}

// BackendNames returns the backend names, sorted.
func BackendNames() []string { return []string{BackendBlocked, BackendNaive} }

// naiveBackend adapts the reference MatMulInto to the Backend interface. It
// is stateless; Naive returns a shared instance, so dispatching through it
// adds no per-call allocation and the default inference path stays
// bit-identical to the pre-backend code (the golden fixtures pin this).
type naiveBackend struct{}

var naiveShared Backend = naiveBackend{}

// Naive returns the shared reference backend.
func Naive() Backend { return naiveShared }

func (naiveBackend) Name() string { return BackendNaive }

//edgepc:hotpath
func (naiveBackend) MatMulInto(out, a, b *Matrix) error { return MatMulInto(out, a, b) }
