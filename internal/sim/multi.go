// Lockstep evaluation of several configurations against one workload —
// the sim-level face of pipeline.MultiCore. Exploration's dominant cost is
// re-simulating near-identical configurations on the same stream; a
// MultiRunner shares each delivery slab across all lanes so the source and
// transpose cost is paid once per group instead of once per configuration.

package sim

import (
	"fmt"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/workload"
)

// coreParams derives the cycle-domain pipeline parameters from an
// architectural configuration — the single definition every simulation
// evaluates through. Miss latencies include a fill-transfer term
// proportional to the victim level's block size over a 16-byte-per-cycle
// fill path, so large blocks trade their spatial-locality benefit against
// transfer time rather than being free.
func coreParams(c Config) pipeline.Params {
	return pipeline.Params{
		Width:          c.Width,
		FrontEndStages: c.FrontEndStages,
		ROBSize:        c.ROBSize,
		IQSize:         c.IQSize,
		LSQSize:        c.LSQSize,
		SchedStages:    c.SchedDepth,
		LSQStages:      c.LSQDepth,
		WakeupExtra:    c.WakeupMinLat,
		LatL1:          c.L1DLat,
		LatL2:          c.L1DLat + c.L2Lat + c.L1D.BlockBytes/16,
		LatMem:         c.L1DLat + c.L2Lat + c.MemCycles + c.L1D.BlockBytes/16 + c.L2.BlockBytes/16,
		MulLat:         3,
		DivLat:         20,
		MemPorts:       2,
	}
}

// lane is one configuration's reusable scratch state inside a MultiRunner.
// Predictor tables are reused when consecutive runs on the lane share a
// predictor configuration (the paper holds it fixed across the whole
// search), and cache arrays when both geometries match the previous run;
// otherwise they are reallocated.
type lane struct {
	predCfg bpred.Config
	pred    bpred.Predictor

	l1Geom, l2Geom timing.CacheGeom
	mem            *cache.Hierarchy
}

// MultiRunner evaluates groups of configurations against one instruction
// stream in lockstep; a single evaluation is a group of one. A zero-value
// MultiRunner is ready to use. It reuses all scratch state across calls
// (per-lane predictors and caches, per-lane core arenas, the shared
// delivery block) instead of reallocating it, which removes the per-run
// allocation cost on hot paths (design-space search evaluates millions of
// configurations); results are bit-identical to fresh construction. Not
// safe for concurrent use — pool MultiRunners per worker.
type MultiRunner struct {
	multi pipeline.MultiCore
	lanes []lane

	// Per-call scratch, sized to the widest group seen.
	params []pipeline.Params
	preds  []bpred.Predictor
	mems   []*cache.Hierarchy
	out    []pipeline.Result
}

// RunSource evaluates n instructions of src on every configuration in cs,
// writing dst[i] for cs[i]. All lanes observe the same stream — src
// advances by exactly n instructions, once, however many lanes ride it —
// and each lane's result is bit-identical to a scalar pipeline.Core run of
// the same configuration over the same stream. On error no result is
// valid; errors name the offending lane.
func (r *MultiRunner) RunSource(dst []Result, cs []Config, src workload.Source, name string, n int, t tech.Params) error {
	k := len(cs)
	if len(dst) != k {
		return fmt.Errorf("sim: lockstep run: %d results for %d configs", len(dst), k)
	}
	if k == 0 {
		return fmt.Errorf("sim: lockstep run needs at least one config")
	}
	for i := range cs {
		if err := cs[i].Validate(t); err != nil {
			return fmt.Errorf("sim: lockstep lane %d: %w", i, err)
		}
	}
	if len(r.lanes) < k {
		grown := make([]lane, k)
		copy(grown, r.lanes)
		r.lanes = grown
		r.params = make([]pipeline.Params, k)
		r.preds = make([]bpred.Predictor, k)
		r.mems = make([]*cache.Hierarchy, k)
		r.out = make([]pipeline.Result, k)
	}
	params, preds, mems, out := r.params[:k], r.preds[:k], r.mems[:k], r.out[:k]
	for i := range cs {
		c := &cs[i]
		ln := &r.lanes[i]
		if ln.pred != nil && ln.predCfg == c.Bpred {
			ln.pred.Reset()
		} else {
			pred, err := bpred.New(c.Bpred)
			if err != nil {
				return fmt.Errorf("sim: lockstep lane %d: %w", i, err)
			}
			ln.pred, ln.predCfg = pred, c.Bpred
		}
		if ln.mem != nil && ln.l1Geom == c.L1D && ln.l2Geom == c.L2 {
			ln.mem.Reset()
		} else {
			mem, err := cache.NewHierarchy(c.L1D, c.L2)
			if err != nil {
				return fmt.Errorf("sim: lockstep lane %d: %w", i, err)
			}
			ln.mem, ln.l1Geom, ln.l2Geom = mem, c.L1D, c.L2
		}
		params[i] = coreParams(*c)
		preds[i] = ln.pred
		mems[i] = ln.mem
	}
	if err := r.multi.Run(out, params, src, preds, mems, n); err != nil {
		return fmt.Errorf("sim: lockstep: %w", err)
	}
	for i := range cs {
		dst[i] = Result{Config: cs[i], Workload: name, Result: out[i], CPI: r.multi.LaneCPI(i)}
	}
	return nil
}

// SetIntrospection arms CPI-stack accounting (and, with a positive
// interval and recorders, interval sampling) on every lane of subsequent
// runs; see pipeline.MultiCore.SetIntrospection. Sticky across runs.
func (r *MultiRunner) SetIntrospection(interval int, recs []pipeline.IntervalRecorder) {
	r.multi.SetIntrospection(interval, recs)
}

// DisableIntrospection disarms introspection for subsequent runs.
func (r *MultiRunner) DisableIntrospection() { r.multi.DisableIntrospection() }
