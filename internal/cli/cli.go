// Package cli holds the small amount of plumbing the command-line tools
// share. The analysis tools read a cross-configuration matrix with
// ReadMatrix: the paper's published Table 5, or a matrix crossconf saved.
// crossconf alone makes one, with LoadMatrix, by running the exploration
// and cross-simulation pipeline on the synthetic suite.
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

// MatrixOptions controls LoadMatrix's simulation paths.
type MatrixOptions struct {
	// Instructions per cross-configuration evaluation.
	Instructions int
	// Iterations of annealing per chain.
	Iterations int
	// Seed for the whole pipeline.
	Seed int64
	// Session is the evaluation session the simulation paths run on. It
	// is required.
	Session *session.Session
}

// PaperMatrix returns the published Table 5 as a matrix.
func PaperMatrix() (*core.Matrix, error) {
	return core.NewMatrix(paperdata.Benchmarks, paperdata.Table5IPT)
}

// ReadMatrix returns the matrix an analysis tool reads from the named
// source: "paper" for the published Table 5, or "file:<path>" for a
// matrix saved by crossconf -savematrix. It never simulates: a matrix of
// the synthetic suite is made once, by crossconf, and read from its file.
func ReadMatrix(source string) (*core.Matrix, error) {
	if path, ok := strings.CutPrefix(source, "file:"); ok {
		return store.LoadMatrix(path)
	}
	if source == "paper" {
		return PaperMatrix()
	}
	return nil, fmt.Errorf("cli: matrix source %q: want paper or file:<path>; make a matrix with crossconf -source sim|outcomes:<path> -savematrix <path>", source)
}

// LoadMatrix returns crossconf's matrix from the named source: ReadMatrix's
// "paper" and "file:<path>", "sim" to regenerate it end-to-end (explore
// every synthetic workload, then simulate all workload × architecture
// pairs), or "outcomes:<path>" to cross-simulate configurations saved by
// xpscalar -save. The simulation paths run on o.Session and honour ctx.
func LoadMatrix(ctx context.Context, source string, o MatrixOptions) (*core.Matrix, error) {
	profiles := workload.Suite()
	configs := make([]sim.Config, len(profiles))
	path, isOutcomes := strings.CutPrefix(source, "outcomes:")
	switch {
	case source == "paper" || strings.HasPrefix(source, "file:"):
		return ReadMatrix(source)
	case isOutcomes:
		outs, err := store.LoadOutcomes(path, tech.Default())
		if err != nil {
			return nil, err
		}
		if len(outs) != len(profiles) {
			return nil, fmt.Errorf("cli: %d saved outcomes for %d suite workloads", len(outs), len(profiles))
		}
		for i, out := range outs {
			if out.Workload != profiles[i].Name {
				return nil, fmt.Errorf("cli: saved outcome %d is %s, want %s", i, out.Workload, profiles[i].Name)
			}
			configs[i] = out.Best
		}
	case source == "sim":
		opt := explore.DefaultOptions(o.Seed)
		if o.Iterations > 0 {
			opt.Iterations = o.Iterations
		}
		outs, err := o.Session.ExploreSuite(ctx, profiles, opt)
		if err != nil {
			return nil, err
		}
		for i, out := range outs {
			configs[i] = out.Best
		}
	default:
		return nil, fmt.Errorf("cli: unknown matrix source %q (want paper, sim, file:<path> or outcomes:<path>)", source)
	}
	n := o.Instructions
	if n <= 0 {
		n = 60000
	}
	return o.Session.CrossMatrix(ctx, profiles, configs, n, tech.Default())
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
