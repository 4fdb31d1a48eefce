package pipeline

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/sample"
)

// Replicas constructs n networks for the same workload/configuration whose
// trainable parameters share backing storage (nn.ShareParams): replica 0 is
// built normally and every further replica's Param.Value matrices are
// re-pointed at replica 0's. The weights therefore exist once per process
// while everything mutable per frame — tensor workspace, layer caches,
// DGCNN reuse cache, BatchNorm running statistics — stays private per
// replica, which is exactly the split concurrent serving needs: one replica
// per worker goroutine, zero cross-worker synchronization on the hot path.
//
// Loading trained weights into replica 0 (nn.LoadParams writes in place)
// updates every replica; do it before serving starts. Training any replica
// while others serve would race on the shared values — replicas are for
// inference.
func Replicas(w Workload, kind ConfigKind, opts Options, n int) ([]Net, error) {
	if n < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 replica, got %d", n)
	}
	nets := make([]Net, n)
	for i := range nets {
		net, err := Build(w, kind, opts)
		if err != nil {
			return nil, fmt.Errorf("pipeline: replica %d: %w", i, err)
		}
		if i > 0 {
			if err := nn.ShareParams(net.Params(), nets[0].Params()); err != nil {
				return nil, fmt.Errorf("pipeline: replica %d: %w", i, err)
			}
		}
		nets[i] = net
	}
	return nets, nil
}

// RebuildReplica constructs a fresh net for the workload/configuration and
// re-points its parameters at ref's (nn.ShareParams) — the serve-layer
// quarantine hook: when a worker's replica panics mid-frame, its workspace
// and caches can no longer be trusted, so the engine swaps in a replica
// rebuilt from the shared weights. Safe to call concurrently from several
// workers; ref's parameters are only read.
func RebuildReplica(ref Net, w Workload, kind ConfigKind, opts Options) (Net, error) {
	if ref == nil {
		return nil, fmt.Errorf("pipeline: rebuild needs a reference net")
	}
	net, err := Build(w, kind, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: rebuild: %w", err)
	}
	if err := nn.ShareParams(net.Params(), ref.Params()); err != nil {
		return nil, fmt.Errorf("pipeline: rebuild: %w", err)
	}
	return net, nil
}

// degradeSteps is serve's degradation ladder, built from the paper's own
// accuracy/latency knobs (§5, Fig. 15) plus the bucketed sampler's quality
// knob. Rung i applies steps 0..i cumulatively, in this order:
//
//	W/2            shrink the Morton neighbor window W to max(k, W/2)
//	bucketfps@0.5  step exact-FPS sampling sites onto bucketed pruned FPS at
//	               quality 0.5 (half refinement picks, half stride seeds);
//	               sites already on the cheaper Morton stride are untouched,
//	               so the rung only ever removes cost
//	budget/2       halve the sample budget (PointNet++ SA SampleFrac; floor
//	               0.05)
//	reuse+1        raise the neighbor-reuse distance by one layer
//
// The knobs never change parameter shapes, so every tier's replicas share
// weights with the base net (TieredReplicas), and no rung touches the compute
// backend. Knobs a workload doesn't use (W under the baseline config,
// SampleFrac on DGCNN) degrade gracefully to the previous tier's cost.
var degradeSteps = [...]struct {
	label string
	apply func(w Workload, o *Options)
}{
	{"W/2", func(w Workload, o *Options) {
		o.WindowW = max(o.WindowW/2, w.K)
	}},
	{"bucketfps@0.5", func(_ Workload, o *Options) {
		o.SampleArch = sample.ArchBucketFPS
		o.SampleQuality = 0.5
	}},
	{"budget/2", func(_ Workload, o *Options) {
		o.SampleFrac = max(o.SampleFrac/2, 0.05)
	}},
	{"reuse+1", func(_ Workload, o *Options) {
		o.ReuseDistance++
		o.PPReuseDistance++
	}},
}

// MaxDegradeTiers is the depth of the ladder DegradeTiers can derive.
const MaxDegradeTiers = len(degradeSteps)

// DegradeTiers derives the first min(n, MaxDegradeTiers) rungs of the
// degradation ladder (degradeSteps) from a base configuration: tiers[i] is
// the base options with steps 0..i applied.
func DegradeTiers(w Workload, opts Options, n int) []Options {
	if n < 1 {
		return nil
	}
	opts.defaults(w)
	tiers := make([]Options, min(n, MaxDegradeTiers))
	for i := range tiers {
		degradeSteps[i].apply(w, &opts)
		tiers[i] = opts
	}
	return tiers
}

// DegradeLabels names each rung of the DegradeTiers ladder, in order, by the
// cumulative knobs it applies (e.g. "W/2+bucketfps@0.5").
func DegradeLabels() []string {
	labels := make([]string, MaxDegradeTiers)
	for i, s := range degradeSteps {
		labels[i] = s.label
		if i > 0 {
			labels[i] = labels[i-1] + "+" + s.label
		}
	}
	return labels
}

// FleetReplicas builds the replica tensor for a multi-engine fleet:
// result[e] is a TieredReplicas-shaped matrix (row 0 full fidelity, row 1+i
// tier i) for engine e, and every net across every engine, tier and worker
// shares one set of trainable parameters with result[0][0][0]. The weights
// therefore exist once per process however wide the fleet scales — the
// construction serve.NewRouter expects: one serve.New engine per
// result[e], wired into one Router.
func FleetReplicas(w Workload, kind ConfigKind, opts Options, engines, workers int, tiers []Options) ([][][]Net, error) {
	if engines < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 engine, got %d", engines)
	}
	fleet := make([][][]Net, engines)
	rows, err := TieredReplicas(w, kind, opts, workers, tiers)
	if err != nil {
		return nil, err
	}
	fleet[0] = rows
	ref := rows[0][0]
	for e := 1; e < engines; e++ {
		rows := make([][]Net, 1+len(tiers))
		for ti := range rows {
			topt := opts
			if ti > 0 {
				topt = tiers[ti-1]
			}
			row := make([]Net, workers)
			for wi := range row {
				net, err := RebuildReplica(ref, w, kind, topt)
				if err != nil {
					return nil, fmt.Errorf("pipeline: engine %d tier %d replica %d: %w", e, ti, wi, err)
				}
				row[wi] = net
			}
			rows[ti] = row
		}
		fleet[e] = rows
	}
	return fleet, nil
}

// TieredReplicas builds the replica matrix for a degraded serving ladder:
// row 0 holds workers full-fidelity replicas of the base options, and row
// 1+i holds workers replicas built with tiers[i] — every net in every row
// sharing one set of trainable parameters with the base replica. serve wires
// row 0 into New and the remaining rows into Config.Degrade.
func TieredReplicas(w Workload, kind ConfigKind, opts Options, workers int, tiers []Options) ([][]Net, error) {
	base, err := Replicas(w, kind, opts, workers)
	if err != nil {
		return nil, err
	}
	rows := make([][]Net, 1, 1+len(tiers))
	rows[0] = base
	for ti, topt := range tiers {
		row := make([]Net, workers)
		for i := range row {
			net, err := RebuildReplica(base[0], w, kind, topt)
			if err != nil {
				return nil, fmt.Errorf("pipeline: tier %d replica %d: %w", ti+1, i, err)
			}
			row[i] = net
		}
		rows = append(rows, row)
	}
	return rows, nil
}
