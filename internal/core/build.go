// Building a cross-configuration matrix from simulation: every workload is
// executed on every workload's customized architecture (the step producing
// the paper's Table 5 from its Table 4).

package core

import (
	"context"
	"fmt"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// BuildMatrix evaluates every profile on every configuration for n
// instructions each on eng and returns the resulting cross-configuration
// IPT matrix. configs[i] must be the customized architecture of
// profiles[i]. Each row — one workload against every configuration — is a
// single batch evaluation: cells that miss the engine's cache run as one
// lockstep group over one shared replay of the workload's stream, and
// cells already simulated by the exploration phase are served from cache.
// Rows run in parallel on the engine's pool, each under a cell span that
// ends with the row's cells. Cancelling ctx stops dispatching between rows
// and returns the context's error; completed rows are observable through
// the engine's cache and their spans, but no partial Matrix is returned (a
// Matrix with holes would silently corrupt every downstream figure of
// merit). Names are checked before the first row runs, so a repeated or
// empty workload name fails without simulating anything.
func BuildMatrix(ctx context.Context, eng *evalengine.Engine, profiles []workload.Profile, configs []sim.Config, n int, t tech.Params) (*Matrix, error) {
	if len(profiles) == 0 || len(profiles) != len(configs) {
		return nil, fmt.Errorf("core: %d profiles for %d configs", len(profiles), len(configs))
	}
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	if err := checkNames(names); err != nil {
		return nil, err
	}
	ipt := make([][]float64, len(profiles))
	for i := range ipt {
		ipt[i] = make([]float64, len(configs))
	}

	if err := eng.Pool().MapCtx(ctx, len(profiles), func(cctx context.Context, w int) error {
		// One cell span per row; its arg is the row width. The per-cell
		// split lives inside the batch (hits vs the lockstep group).
		h := tracing.FromContext(cctx)
		sp := h.Begin(tracing.KindCell, profiles[w].Name, int64(len(configs)))
		if sp.ID != 0 {
			cctx = tracing.ChildContext(cctx, sp)
		}
		row := make([]evalengine.Eval, len(configs))
		if err := eng.EvaluateBatch(cctx, row, configs, profiles[w], n, t, power.ObjIPT); err != nil {
			h.End(sp)
			return fmt.Errorf("core: %s row: %w", profiles[w].Name, err)
		}
		for a := range configs {
			ipt[w][a] = row[a].Result.IPT()
		}
		if sp.ID != 0 {
			cells := make([]tracing.Cell, len(configs))
			for a := range cells {
				cells[a] = tracing.Cell{Arch: names[a], IPT: ipt[w][a]}
			}
			sp.Attrs = &tracing.CellAttrs{Budget: n, Cells: cells}
		}
		h.End(sp)
		return nil
	}); err != nil {
		return nil, err
	}
	return NewMatrix(names, ipt)
}
