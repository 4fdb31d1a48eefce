package pipeline

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tensor"
)

// String names the architecture (Table 1 uses these in the Model column
// prefixes).
func (a Arch) String() string {
	switch a {
	case ArchPointNetPP:
		return "pointnet++"
	case ArchDGCNN:
		return "dgcnn"
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// ArchBuilder constructs a network for a workload under a configuration.
// Builders receive Options with defaults already applied.
type ArchBuilder func(w Workload, kind ConfigKind, opts Options) (Net, error)

var archBuilders = map[Arch]ArchBuilder{}

// RegisterArch installs the builder for an architecture, replacing any
// previous registration. New architectures plug into the harness by
// registering here; every workload whose Arch matches then builds through
// NewNet without touching the pipeline package.
func RegisterArch(a Arch, b ArchBuilder) {
	if b == nil {
		panic(fmt.Sprintf("pipeline: RegisterArch(%v) with nil builder", a))
	}
	archBuilders[a] = b
}

// NewNet constructs the network for a workload under a configuration by
// dispatching to the registered ArchBuilder.
func NewNet(w Workload, kind ConfigKind, opts Options) (Net, error) {
	b, ok := archBuilders[w.Arch]
	if !ok {
		names := make([]string, 0, len(archBuilders))
		for a := range archBuilders {
			names = append(names, a.String())
		}
		sort.Strings(names)
		return nil, fmt.Errorf("pipeline: no builder registered for architecture %v (registered: %s)", w.Arch, strings.Join(names, ", "))
	}
	opts.defaults(w)
	return b(w, kind, opts)
}

func init() {
	RegisterArch(ArchPointNetPP, buildPointNetPP)
	RegisterArch(ArchDGCNN, buildDGCNN)
}

// mortonStructurize returns the structurization options for a configuration:
// nil for the baseline, Morton ordering for S+N and S+N+F.
func mortonStructurize(kind ConfigKind, opts Options) *core.StructurizeOptions {
	if kind == Baseline {
		return nil
	}
	return &core.StructurizeOptions{TotalBits: opts.TotalBits}
}

// resolveBackend turns Options.Backend into its shared, stateless
// tensor.Backend.
func resolveBackend(opts Options) (tensor.Backend, error) {
	be, err := tensor.NewBackend(opts.Backend)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return be, nil
}

func buildPointNetPP(w Workload, kind ConfigKind, opts Options) (Net, error) {
	be, err := resolveBackend(opts)
	if err != nil {
		return nil, err
	}
	useMorton := kind != Baseline
	sa := make([]model.ModuleStrategy, opts.Depth)
	fp := make([]model.ModuleStrategy, opts.Depth)
	reuse := core.ReusePolicy{}
	if useMorton {
		for l := 0; l < opts.MortonLayers && l < opts.Depth; l++ {
			sa[l] = model.ModuleStrategy{MortonSample: true, MortonWindow: true, WindowW: opts.WindowW}
			// The matching FP module is the one that *produces* level l:
			// execution index Depth−1−l (§5.1.3 optimizes the last FP).
			fp[opts.Depth-1-l] = model.ModuleStrategy{MortonInterp: true}
		}
		reuse = core.ReusePolicy{Distance: opts.PPReuseDistance}
	}
	return model.NewPointNetPP(model.PPConfig{
		Classes:       w.Classes,
		Depth:         opts.Depth,
		BaseWidth:     opts.BaseWidth,
		K:             w.K,
		SampleFrac:    opts.SampleFrac,
		Radius:        opts.BallRadius,
		SampleArch:    opts.SampleArch,
		SampleQuality: opts.SampleQuality,
		ExtraFeatDim:  opts.ExtraFeatDim,
		SAStrategies:  sa,
		FPStrategies:  fp,
		Reuse:         reuse,
		Structurize:   mortonStructurize(kind, opts),
		Backend:       be,
		Seed:          opts.Seed,
	})
}

func buildDGCNN(w Workload, kind ConfigKind, opts Options) (Net, error) {
	be, err := resolveBackend(opts)
	if err != nil {
		return nil, err
	}
	useMorton := kind != Baseline
	strat := make([]model.ModuleStrategy, opts.Modules)
	reuse := core.ReusePolicy{}
	if useMorton {
		for l := 0; l < opts.MortonLayers && l < opts.Modules; l++ {
			strat[l] = model.ModuleStrategy{MortonWindow: true, WindowW: opts.WindowW}
		}
		reuse = core.ReusePolicy{Distance: opts.ReuseDistance}
	}
	return model.NewDGCNN(model.DGCNNConfig{
		Classes:      w.Classes,
		Modules:      opts.Modules,
		BaseWidth:    opts.BaseWidth,
		K:            w.K,
		ExtraFeatDim: opts.ExtraFeatDim,
		Strategies:   strat,
		Reuse:        reuse,
		Task:         w.Task,
		Structurize:  mortonStructurize(kind, opts),
		Backend:      be,
		Seed:         opts.Seed,
	})
}
