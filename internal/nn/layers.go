package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b. Applied to a (points ×
// channels) activation it is the PointNet-family "shared MLP" / 1×1
// convolution: every point row is transformed by the same weights.
type Linear struct {
	W, B *Param
	x    *tensor.Matrix // cached input for backward
	ws   *tensor.Workspace
	be   tensor.Backend
}

// NewLinear creates a Linear layer with He initialization.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W: NewParam(name+".W", in, out),
		B: NewParam(name+".b", 1, out),
	}
	InitHe(l.W, in, rng)
	return l
}

// SetWorkspace implements WorkspaceUser.
func (l *Linear) SetWorkspace(ws *tensor.Workspace) { l.ws = ws }

// SetBackend implements BackendUser: eval-mode matmuls dispatch through be.
func (l *Linear) SetBackend(be tensor.Backend) { l.be = be }

// backend resolves the layer's compute backend, defaulting to the reference
// kernels.
func (l *Linear) backend() tensor.Backend {
	if l.be != nil {
		return l.be
	}
	return tensor.Naive()
}

// Forward implements Layer. The x·W product is the layer's compute kernel and
// the one place the backend choice matters: the eval path dispatches it
// through the configured tensor.Backend (blocked tiles it), while the bias add
// is the package row op under every backend.
//
//edgepc:hotpath
func (l *Linear) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	if train {
		l.x = x
	}
	var y *tensor.Matrix
	var err error
	if !train && l.ws != nil {
		y = l.ws.Get(x.Rows, l.W.Value.Cols)
		err = l.backend().MatMulInto(y, x, l.W.Value)
	} else {
		//edgepc:lint-ignore hotpathalloc training / no-workspace fallback; the eval branch above uses MatMulInto
		y, err = tensor.MatMul(x, l.W.Value)
	}
	if err != nil {
		return nil, fmt.Errorf("linear %s: %w", l.W.Name, err)
	}
	if err := tensor.AddBiasRows(y, l.B.Value.Data); err != nil {
		return nil, err
	}
	return y, nil
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if l.x == nil {
		return nil, fmt.Errorf("linear %s: backward before forward(train)", l.W.Name)
	}
	dW, err := tensor.MatMulAT(l.x, grad)
	if err != nil {
		return nil, err
	}
	for i, v := range dW.Data {
		l.W.Grad.Data[i] += v
	}
	for r := 0; r < grad.Rows; r++ {
		row := grad.Row(r)
		for c, v := range row {
			l.B.Grad.Data[c] += v
		}
	}
	dx, err := tensor.MatMulBT(grad, l.W.Value)
	if err != nil {
		return nil, err
	}
	return dx, nil
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
	ws   *tensor.Workspace
}

// SetWorkspace implements WorkspaceUser.
func (r *ReLU) SetWorkspace(ws *tensor.Workspace) { r.ws = ws }

// Forward implements Layer.
//
//edgepc:hotpath
func (r *ReLU) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	if !train && r.ws != nil {
		// Inference workspace mode: rectify workspace-owned inputs in place
		// (the previous layer's output is dead once we consume it); copy
		// caller-owned inputs into a workspace buffer first.
		out := x
		if !r.ws.Owns(x) {
			out = r.ws.Get(x.Rows, x.Cols)
			copy(out.Data, x.Data)
		}
		for i, v := range out.Data {
			if v <= 0 {
				out.Data[i] = 0
			}
		}
		return out, nil
	}
	//edgepc:lint-ignore hotpathalloc training / no-workspace fallback; the eval branch above rectifies in place
	out := x.Clone()
	if train {
		if cap(r.mask) < len(out.Data) {
			//edgepc:lint-ignore hotpathalloc train-only mask buffer with a cap-guarded grow
			r.mask = make([]bool, len(out.Data))
		}
		r.mask = r.mask[:len(out.Data)]
	}
	for i, v := range out.Data {
		pass := v > 0
		if !pass {
			out.Data[i] = 0
		}
		if train {
			r.mask[i] = pass
		}
	}
	return out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if len(r.mask) != len(grad.Data) {
		return nil, fmt.Errorf("relu: backward shape mismatch")
	}
	out := grad.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out, nil
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// BatchNorm normalizes each channel over the row (point) dimension, with
// learnable scale/shift.
//
// Because this library processes one cloud at a time (the row dimension is
// *points of one cloud*, not a batch of independent clouds), inference also
// normalizes with the current input's statistics whenever it has more than
// one row — per-cloud (instance) normalization, the consistent counterpart
// of what training computes. A single-row input (e.g. a globally pooled
// classification feature) falls back to the running statistics.
type BatchNorm struct {
	Gamma, Beta             *Param
	RunningMean, RunningVar []float32
	Momentum                float32
	Eps                     float32

	// Backward caches.
	xhat   *tensor.Matrix
	invStd []float32

	ws *tensor.Workspace
}

// SetWorkspace implements WorkspaceUser.
func (bn *BatchNorm) SetWorkspace(ws *tensor.Workspace) { bn.ws = ws }

// NewBatchNorm creates a BatchNorm over `channels` columns.
func NewBatchNorm(name string, channels int) *BatchNorm {
	bn := &BatchNorm{
		Gamma:       NewParam(name+".gamma", 1, channels),
		Beta:        NewParam(name+".beta", 1, channels),
		RunningMean: make([]float32, channels),
		RunningVar:  make([]float32, channels),
		Momentum:    0.1,
		Eps:         1e-5,
	}
	for i := range bn.Gamma.Value.Data {
		bn.Gamma.Value.Data[i] = 1
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	c := x.Cols
	if c != len(bn.RunningMean) {
		return nil, fmt.Errorf("batchnorm %s: %d channels, expected %d", bn.Gamma.Name, c, len(bn.RunningMean))
	}
	if !train && bn.ws != nil {
		return bn.forwardWS(x)
	}
	out := tensor.New(x.Rows, c)
	if !train && x.Rows == 1 {
		for r := 0; r < x.Rows; r++ {
			xr, or := x.Row(r), out.Row(r)
			for j := 0; j < c; j++ {
				inv := 1 / float32(math.Sqrt(float64(bn.RunningVar[j]+bn.Eps)))
				or[j] = bn.Gamma.Value.Data[j]*(xr[j]-bn.RunningMean[j])*inv + bn.Beta.Value.Data[j]
			}
		}
		return out, nil
	}
	n := float32(x.Rows)
	mean := make([]float32, c)
	variance := make([]float32, c)
	for r := 0; r < x.Rows; r++ {
		for j, v := range x.Row(r) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for r := 0; r < x.Rows; r++ {
		for j, v := range x.Row(r) {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= n
	}
	invStd := make([]float32, c)
	for j := range invStd {
		invStd[j] = 1 / float32(math.Sqrt(float64(variance[j]+bn.Eps)))
	}
	xhat := tensor.New(x.Rows, c)
	for r := 0; r < x.Rows; r++ {
		xr, hr, or := x.Row(r), xhat.Row(r), out.Row(r)
		for j := 0; j < c; j++ {
			h := (xr[j] - mean[j]) * invStd[j]
			hr[j] = h
			or[j] = bn.Gamma.Value.Data[j]*h + bn.Beta.Value.Data[j]
		}
	}
	if train {
		bn.invStd = invStd
		bn.xhat = xhat
		for j := 0; j < c; j++ {
			bn.RunningMean[j] = (1-bn.Momentum)*bn.RunningMean[j] + bn.Momentum*mean[j]
			bn.RunningVar[j] = (1-bn.Momentum)*bn.RunningVar[j] + bn.Momentum*variance[j]
		}
	}
	return out, nil
}

// forwardWS is the inference path backed by the workspace: same statistics
// and per-element arithmetic as the allocating path (bit-identical output),
// but activations and scratch come from the workspace and x̂ is never
// materialized (no backward pass will consume it).
//
//edgepc:hotpath
func (bn *BatchNorm) forwardWS(x *tensor.Matrix) (*tensor.Matrix, error) {
	c := x.Cols
	out := bn.ws.Get(x.Rows, c)
	if x.Rows == 1 {
		xr, or := x.Row(0), out.Row(0)
		for j := 0; j < c; j++ {
			inv := 1 / float32(math.Sqrt(float64(bn.RunningVar[j]+bn.Eps)))
			or[j] = bn.Gamma.Value.Data[j]*(xr[j]-bn.RunningMean[j])*inv + bn.Beta.Value.Data[j]
		}
		return out, nil
	}
	n := float32(x.Rows)
	stats := bn.ws.Get(3, c) // rows: mean, variance, invStd
	mean, variance, invStd := stats.Row(0), stats.Row(1), stats.Row(2)
	for j := 0; j < c; j++ {
		mean[j] = 0
		variance[j] = 0
	}
	for r := 0; r < x.Rows; r++ {
		for j, v := range x.Row(r) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for r := 0; r < x.Rows; r++ {
		for j, v := range x.Row(r) {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= n
	}
	for j := range invStd {
		invStd[j] = 1 / float32(math.Sqrt(float64(variance[j]+bn.Eps)))
	}
	for r := 0; r < x.Rows; r++ {
		xr, or := x.Row(r), out.Row(r)
		for j := 0; j < c; j++ {
			h := (xr[j] - mean[j]) * invStd[j]
			or[j] = bn.Gamma.Value.Data[j]*h + bn.Beta.Value.Data[j]
		}
	}
	bn.ws.Put(stats)
	return out, nil
}

// Backward implements Layer.
func (bn *BatchNorm) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if bn.xhat == nil || grad.Rows != bn.xhat.Rows || grad.Cols != bn.xhat.Cols {
		return nil, fmt.Errorf("batchnorm %s: backward before forward(train)", bn.Gamma.Name)
	}
	c := grad.Cols
	n := float32(grad.Rows)
	sumG := make([]float32, c)
	sumGH := make([]float32, c)
	for r := 0; r < grad.Rows; r++ {
		gr, hr := grad.Row(r), bn.xhat.Row(r)
		for j := 0; j < c; j++ {
			sumG[j] += gr[j]
			sumGH[j] += gr[j] * hr[j]
		}
	}
	for j := 0; j < c; j++ {
		bn.Beta.Grad.Data[j] += sumG[j]
		bn.Gamma.Grad.Data[j] += sumGH[j]
	}
	out := tensor.New(grad.Rows, c)
	for r := 0; r < grad.Rows; r++ {
		gr, hr, or := grad.Row(r), bn.xhat.Row(r), out.Row(r)
		for j := 0; j < c; j++ {
			g := bn.Gamma.Value.Data[j]
			or[j] = g * bn.invStd[j] / n * (n*gr[j] - sumG[j] - hr[j]*sumGH[j])
		}
	}
	return out, nil
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Dropout zeroes activations with probability P during training, scaling the
// survivors by 1/(1−P); it is the identity during inference.
type Dropout struct {
	P    float64
	Rng  *rand.Rand
	mask []bool
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	if !train || d.P <= 0 {
		d.mask = nil
		return x, nil
	}
	if d.Rng == nil {
		d.Rng = rand.New(rand.NewSource(1))
	}
	out := x.Clone()
	if cap(d.mask) < len(out.Data) {
		d.mask = make([]bool, len(out.Data))
	}
	d.mask = d.mask[:len(out.Data)]
	scale := float32(1 / (1 - d.P))
	for i := range out.Data {
		if d.Rng.Float64() < d.P {
			out.Data[i] = 0
			d.mask[i] = false
		} else {
			out.Data[i] *= scale
			d.mask[i] = true
		}
	}
	return out, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	if d.mask == nil {
		return grad, nil
	}
	if len(d.mask) != len(grad.Data) {
		return nil, fmt.Errorf("dropout: backward shape mismatch")
	}
	out := grad.Clone()
	scale := float32(1 / (1 - d.P))
	for i := range out.Data {
		if d.mask[i] {
			out.Data[i] *= scale
		} else {
			out.Data[i] = 0
		}
	}
	return out, nil
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer

	ws *tensor.Workspace
}

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// SetWorkspace implements WorkspaceUser, recursing into every child layer
// that supports workspace-backed inference.
func (s *Sequential) SetWorkspace(ws *tensor.Workspace) {
	s.ws = ws
	AttachWorkspace(ws, s.Layers...)
}

// SetBackend implements BackendUser, recursing into every child layer that
// dispatches kernels through a backend.
func (s *Sequential) SetBackend(be tensor.Backend) {
	AttachBackend(be, s.Layers...)
}

// Forward implements Layer.
//
//edgepc:hotpath
func (s *Sequential) Forward(x *tensor.Matrix, train bool) (*tensor.Matrix, error) {
	cur := x
	for i, l := range s.Layers {
		y, err := l.Forward(cur, train)
		if err != nil {
			return nil, err
		}
		// Workspace inference: the intermediate produced by layer i-1 is
		// dead once layer i has consumed it, so recycle it eagerly. The
		// chain input (i == 0) belongs to the caller; layers that return
		// their input (in-place ReLU, eval Dropout) keep it alive.
		if !train && s.ws != nil && i > 0 && y != cur && s.ws.Owns(cur) {
			s.ws.Put(cur)
		}
		cur = y
	}
	return cur, nil
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Matrix) (*tensor.Matrix, error) {
	var err error
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad, err = s.Layers[i].Backward(grad)
		if err != nil {
			return nil, err
		}
	}
	return grad, nil
}

// Params implements Layer.
func (s *Sequential) Params() []*Param { return CollectParams(s.Layers...) }

// NewSharedMLP builds the PointNet-family per-point MLP block: a stack of
// Linear → BatchNorm → ReLU for each requested width. dims[0] is the input
// width.
func NewSharedMLP(name string, dims []int, rng *rand.Rand) *Sequential {
	var layers []Layer
	for i := 1; i < len(dims); i++ {
		layers = append(layers,
			NewLinear(fmt.Sprintf("%s.%d", name, i-1), dims[i-1], dims[i], rng),
			NewBatchNorm(fmt.Sprintf("%s.%d.bn", name, i-1), dims[i]),
			&ReLU{},
		)
	}
	return NewSequential(layers...)
}
