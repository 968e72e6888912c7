// Package cli holds the small amount of plumbing the command-line tools
// share: obtaining a cross-configuration matrix either from the paper's
// published Table 5 or by running the full exploration + cross-simulation
// pipeline on the synthetic suite.
package cli

import (
	"context"
	"fmt"
	"strings"

	"xpscalar/internal/core"
	"xpscalar/internal/explore"
	"xpscalar/internal/paperdata"
	"xpscalar/internal/session"
	"xpscalar/internal/sim"
	"xpscalar/internal/store"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// MatrixOptions controls LoadMatrix's simulation path.
type MatrixOptions struct {
	// Instructions per cross-configuration evaluation.
	Instructions int
	// Iterations of annealing per chain.
	Iterations int
	// Seed for the whole pipeline.
	Seed int64
	// Session is the evaluation session the simulation paths run on; nil
	// selects the process-default session.
	Session *session.Session
}

// DefaultMatrixOptions returns a moderate regeneration budget.
func DefaultMatrixOptions() MatrixOptions {
	return MatrixOptions{Instructions: 60000, Iterations: 200, Seed: 42}
}

// PaperMatrix returns the published Table 5 as a matrix.
func PaperMatrix() (*core.Matrix, error) {
	return core.NewMatrix(paperdata.Benchmarks, paperdata.Table5IPT)
}

// LoadMatrix returns a cross-configuration matrix from the named source:
// "paper" for the published Table 5, "sim" to regenerate it end-to-end
// (explore every synthetic workload, then simulate all workload ×
// architecture pairs), "file:<path>" for a matrix saved by crossconf
// -savematrix, or "outcomes:<path>" to cross-simulate configurations saved
// by xpscalar -save. The simulation paths run on o.Session and honour
// ctx; the file and paper paths are instantaneous and ignore it.
func LoadMatrix(ctx context.Context, source string, o MatrixOptions) (*core.Matrix, error) {
	sess := o.Session
	if sess == nil {
		sess = session.Default()
	}
	if path, ok := strings.CutPrefix(source, "file:"); ok {
		return store.LoadMatrix(path)
	}
	if path, ok := strings.CutPrefix(source, "outcomes:"); ok {
		outs, err := store.LoadOutcomes(path, tech.Default())
		if err != nil {
			return nil, err
		}
		profiles := workload.Suite()
		if len(outs) != len(profiles) {
			return nil, fmt.Errorf("cli: %d saved outcomes for %d suite workloads", len(outs), len(profiles))
		}
		configs := make([]sim.Config, len(outs))
		for i, out := range outs {
			if out.Workload != profiles[i].Name {
				return nil, fmt.Errorf("cli: saved outcome %d is %s, want %s", i, out.Workload, profiles[i].Name)
			}
			configs[i] = out.Best
		}
		n := o.Instructions
		if n <= 0 {
			n = 60000
		}
		return sess.CrossMatrix(ctx, profiles, configs, n, tech.Default())
	}
	switch source {
	case "paper":
		return PaperMatrix()
	case "sim":
		opt := explore.DefaultOptions(o.Seed)
		if o.Iterations > 0 {
			opt.Iterations = o.Iterations
		}
		profiles := workload.Suite()
		outs, err := sess.ExploreSuite(ctx, profiles, opt)
		if err != nil {
			return nil, err
		}
		configs := make([]sim.Config, len(outs))
		for i, out := range outs {
			configs[i] = out.Best
		}
		n := o.Instructions
		if n <= 0 {
			n = 60000
		}
		return sess.CrossMatrix(ctx, profiles, configs, n, tech.Default())
	default:
		return nil, fmt.Errorf("cli: unknown matrix source %q (want paper, sim, file:<path> or outcomes:<path>)", source)
	}
}

// NamedConfig pairs a benchmark name with a configuration.
type NamedConfig struct {
	Name   string
	Config sim.Config
}

// PaperTable4Configs converts the published Table 4 configurations into
// sim.Config values. They are intended for analysis (feature vectors,
// clustering); they are not guaranteed to satisfy this framework's timing
// validation, which is calibrated against its own array model.
func PaperTable4Configs() []NamedConfig {
	out := make([]NamedConfig, 0, len(paperdata.Table4))
	for _, c := range paperdata.Table4 {
		out = append(out, NamedConfig{
			Name: c.Name,
			Config: sim.Config{
				ClockNs:        c.ClockNs,
				Width:          c.Width,
				FrontEndStages: c.FrontEndStages,
				ROBSize:        c.ROBSize,
				IQSize:         c.IQSize,
				LSQSize:        c.LSQSize,
				SchedDepth:     c.SchedDepth,
				LSQDepth:       2,
				WakeupMinLat:   c.WakeupMinLat,
				L1D:            timing.CacheGeom{Sets: c.L1DSets, Assoc: c.L1DAssoc, BlockBytes: c.L1DBlock},
				L1DLat:         c.L1DLat,
				L2:             timing.CacheGeom{Sets: c.L2Sets, Assoc: c.L2Assoc, BlockBytes: c.L2Block},
				L2Lat:          c.L2Lat,
				MemCycles:      c.MemCycles,
			},
		})
	}
	return out
}

// ParsePolicy maps a flag value to a surrogate policy.
func ParsePolicy(s string) (core.Policy, error) {
	switch s {
	case "none":
		return core.PolicyNoPropagation, nil
	case "forward":
		return core.PolicyForwardPropagation, nil
	case "full":
		return core.PolicyFullPropagation, nil
	default:
		return 0, fmt.Errorf("cli: unknown policy %q (want none, forward or full)", s)
	}
}
