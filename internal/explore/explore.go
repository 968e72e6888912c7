// Package explore implements xp-scalar's design-space exploration: a
// simulated-annealing search for the best superscalar configuration for a
// workload (paper §3).
//
// Each annealing move follows the paper's two move classes: either the
// clock period is varied and every unit's size is re-fitted to the number
// of pipeline stages assigned to it, or one unit's pipeline depth is varied
// and that unit's configuration adjusted. The objective is IPT
// (instructions per time unit); when a configuration falls below half the
// best observed IPT, the search rolls back to the best solution, as in the
// paper. Evaluations early in the search use a short instruction budget and
// switch to a longer one for refinement, mirroring the paper's 10M-then-
// 100M SimPoint discipline at reduced scale.
package explore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strconv"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// Options controls one exploration.
type Options struct {
	// Iterations is the number of annealing steps per chain.
	Iterations int
	// Chains is the number of independent annealing chains; the best
	// result across chains wins. Chains run in parallel.
	Chains int
	// ShortBudget is the per-evaluation instruction count for the early
	// phase; LongBudget for the refinement phase (paper: 10M / 100M).
	ShortBudget, LongBudget int
	// InitTemp is the initial annealing temperature as a fraction of the
	// current IPT; CoolRate is the per-step geometric cooling factor.
	InitTemp, CoolRate float64
	// Seed makes the whole exploration deterministic.
	Seed int64
	// Tech is the technology the configurations are fitted against.
	Tech tech.Params
	// Objective selects what the annealer maximizes. The zero value is
	// the paper's raw-performance IPT; the power-aware objectives
	// implement the combined performance/power/area extension of §3.
	Objective power.Objective
	// NeighborhoodK, when >= 2, makes each annealing step propose K
	// candidate moves and evaluate the feasible ones as ONE batch — the
	// engine runs the cache misses among them as a lockstep group over a
	// shared replay of the workload's stream — then takes the best-scoring
	// candidate as the step's proposal for the usual Metropolis test.
	// Values <= 1 preserve the classic single-proposal walk unchanged.
	// Wider neighborhoods consume more randomness per step, so K changes
	// the search trajectory (deliberately: best-of-K proposals climb
	// faster); it never changes what any individual evaluation returns.
	NeighborhoodK int
	// FixedClockNs, when non-zero, pins the clock period to the given
	// value, reproducing the restricted exploration style of prior work
	// the paper criticizes (§2.3: tools that "consider a fixed clock
	// period across variability in other architectural parameters ...
	// effectively diminish the true performance potential of
	// customization"). For the ablation only.
	FixedClockNs float64
	// Engine is the evaluation engine the search runs against. Required:
	// explorations always run through an injected engine — a Session's,
	// or one constructed directly in tests — never a process global.
	Engine *evalengine.Engine
}

// DefaultOptions returns a budget suitable for tests and examples: small
// but sufficient for the annealer to separate the suite's regimes. Command
// line tools scale these up.
func DefaultOptions(seed int64) Options {
	return Options{
		Iterations:  120,
		Chains:      3,
		ShortBudget: 12000,
		LongBudget:  40000,
		InitTemp:    0.08,
		CoolRate:    0.97,
		Seed:        seed,
		Tech:        tech.Default(),
	}
}

// maxChains and maxNeighborhoodK bound the per-workload fan-out the
// options may ask for: each chain is a slice slot and a pool job, each
// neighborhood member an evaluation per step, so an unbounded request is
// an unbounded allocation. Every default, test and example stays far
// below them.
const (
	maxChains        = 64
	maxNeighborhoodK = 64
)

// Validate reports whether the options' search knobs are well formed —
// the check a service runs on a request before it queues the search. The
// Engine is checked when a search starts.
func (o Options) Validate() error {
	switch {
	case o.Iterations < 1:
		return fmt.Errorf("explore: iterations %d must be >= 1", o.Iterations)
	case o.Chains < 1 || o.Chains > maxChains:
		return fmt.Errorf("explore: chains %d outside [1, %d]", o.Chains, maxChains)
	case o.NeighborhoodK > maxNeighborhoodK:
		return fmt.Errorf("explore: neighborhood %d above %d", o.NeighborhoodK, maxNeighborhoodK)
	case o.ShortBudget < 1000 || o.LongBudget < o.ShortBudget:
		return fmt.Errorf("explore: budgets %d/%d malformed", o.ShortBudget, o.LongBudget)
	case o.InitTemp <= 0 || o.CoolRate <= 0 || o.CoolRate >= 1:
		return fmt.Errorf("explore: annealing schedule (%v, %v) malformed", o.InitTemp, o.CoolRate)
	}
	return o.Tech.Validate()
}

// validate is Validate plus the engine a search runs against.
func (o Options) validate() error {
	if o.Engine == nil {
		return fmt.Errorf("explore: options carry no Engine (run through a Session or set one explicitly)")
	}
	return o.Validate()
}

// Outcome is the result of exploring one workload.
type Outcome struct {
	Workload string
	Best     sim.Config
	// BestIPT is the performance of the best configuration; under a
	// power-aware objective it is the IPT of the score-optimal point,
	// not the maximum IPT seen.
	BestIPT float64
	// BestScore is the objective value of the best configuration; equal
	// to BestIPT under the default objective.
	BestScore   float64
	Evaluations int
}

// Workload runs the annealing search for one workload and returns the best
// configuration found — the workload's configurational characteristics.
// Cancelling ctx stops every chain at its next iteration boundary and
// returns the context's error.
func Workload(ctx context.Context, p workload.Profile, opt Options) (Outcome, error) {
	if err := opt.validate(); err != nil {
		return Outcome{}, err
	}
	if err := p.Validate(); err != nil {
		return Outcome{}, err
	}

	// The workload span covers every chain plus selection; chains fan out
	// through MapCtx so their spans land on per-worker tracks.
	h := tracing.FromContext(ctx)
	wsp := h.Begin(tracing.KindWorkload, p.Name, 0)
	defer h.End(wsp)
	if wsp.ID != 0 {
		ctx = tracing.ChildContext(ctx, wsp)
	}

	type chainResult struct {
		out Outcome
		err error
	}
	results := make([]chainResult, opt.Chains)
	pool := opt.Engine.Pool()
	mapErr := pool.MapCtx(ctx, opt.Chains, func(cctx context.Context, ci int) error {
		out, err := runChain(cctx, p, opt, opt.Seed+int64(ci)*7919, ci)
		results[ci] = chainResult{out, err}
		return nil
	})

	for _, r := range results {
		if r.err != nil {
			return Outcome{}, r.err
		}
	}
	if mapErr != nil {
		// No chain failed, so this is cancellation before dispatch.
		return Outcome{}, mapErr
	}
	// Select the first chain explicitly, then compare: seeding the
	// comparison with a zero Outcome would silently drop every chain when
	// all scores are <= 0, which power-aware objectives permit.
	best := results[0].out
	totalEvals := 0
	for _, r := range results {
		totalEvals += r.out.Evaluations
	}
	for _, r := range results[1:] {
		if r.out.BestScore > best.BestScore {
			best = r.out
		}
	}
	best.Evaluations = totalEvals
	return best, nil
}

// point is a design point in move space: the free parameters from which the
// full configuration is fitted.
type point struct {
	clock      float64
	width      int
	schedDepth int
	lsqDepth   int
	l1Lat      int
	l2Lat      int
	l1Geom     timing.CacheGeom // zero means "largest fitting"
	l2Geom     timing.CacheGeom
}

func initialPoint() point {
	return point{
		clock:      0.33,
		width:      3,
		schedDepth: 1,
		lsqDepth:   2,
		l1Lat:      4,
		l2Lat:      12,
	}
}

// fit derives the full configuration from the point, re-sizing every unit
// to its stage budget (the paper's adjustment step after each move). It
// reports false when the point is infeasible (e.g. no issue queue fits).
func (pt point) fit(t tech.Params) (sim.Config, bool) {
	sched := timing.BudgetNs(pt.clock, pt.schedDepth, t)
	iq := timing.FitIQ(sched, pt.width, t)
	rob := timing.FitROB(sched, pt.width, t)
	lsq := timing.FitLSQ(timing.BudgetNs(pt.clock, pt.lsqDepth, t), t)
	if iq == 0 || rob == 0 || lsq == 0 {
		return sim.Config{}, false
	}
	if iq > rob {
		iq = rob
	}

	l1Budget := timing.BudgetNs(pt.clock, pt.l1Lat, t)
	l1 := pt.l1Geom
	if l1.Sets == 0 || timing.CacheAccessNs(l1, t) > l1Budget {
		l1 = timing.MaxCache(l1Budget, 1, t)
	}
	l2Budget := timing.BudgetNs(pt.clock, pt.l2Lat, t)
	l2 := pt.l2Geom
	if l2.Sets == 0 || timing.CacheAccessNs(l2, t) > l2Budget {
		l2 = timing.MaxCache(l2Budget, 2, t)
	}
	if l1.Sets == 0 || l2.Sets == 0 {
		return sim.Config{}, false
	}

	cfg := sim.Config{
		ClockNs:        pt.clock,
		Width:          pt.width,
		FrontEndStages: timing.FrontEndStages(pt.clock, t),
		ROBSize:        rob,
		IQSize:         iq,
		LSQSize:        lsq,
		SchedDepth:     pt.schedDepth,
		LSQDepth:       pt.lsqDepth,
		WakeupMinLat:   pt.schedDepth - 1,
		L1D:            l1,
		L1DLat:         pt.l1Lat,
		L2:             l2,
		L2Lat:          pt.l2Lat,
		MemCycles:      timing.MemoryCycles(pt.clock, t),
		Bpred:          sim.InitialConfig(t).Bpred,
	}
	if cfg.L2Lat < cfg.L1DLat {
		return sim.Config{}, false
	}
	if err := cfg.Validate(t); err != nil {
		return sim.Config{}, false
	}
	return cfg, true
}

// neighbor produces a random move from the point, following the paper's
// move classes, and names the class taken (for search introspection).
func neighbor(pt point, rng *rand.Rand) (point, string) {
	n := pt
	switch rng.Intn(6) {
	case 0: // vary the clock period; everything re-fits
		factor := 0.85 + rng.Float64()*0.33
		if rng.Intn(5) == 0 {
			// Occasional long-range jump so distant clock regimes
			// (deep-and-fast vs shallow-and-slow) stay reachable.
			factor = 0.6 + rng.Float64()*0.9
		}
		n.clock = math.Max(0.08, math.Min(0.6, pt.clock*factor))
		return n, "clock"
	case 1: // vary scheduler depth
		n.schedDepth = bump(pt.schedDepth, rng, 1, 5)
		return n, "sched-depth"
	case 2: // vary LSQ depth
		n.lsqDepth = bump(pt.lsqDepth, rng, 1, 4)
		return n, "lsq-depth"
	case 3: // vary L1 stage count
		n.l1Lat = bump(pt.l1Lat, rng, 1, 8)
		n.l1Geom = timing.CacheGeom{} // re-fit
		return n, "l1-stages"
	case 4: // vary L2 stage count
		n.l2Lat = bump(pt.l2Lat, rng, 2, 30)
		n.l2Geom = timing.CacheGeom{}
		return n, "l2-stages"
	default: // vary machine width
		n.width = bump(pt.width, rng, 1, 8)
		return n, "width"
	}
}

// geometryMove re-picks a cache geometry among those that fit the current
// budget, exploring associativity/block-size tradeoffs at fixed latency.
func geometryMove(pt point, rng *rand.Rand, t tech.Params) (point, string) {
	n := pt
	if rng.Intn(2) == 0 {
		cands := timing.CacheCandidates(timing.BudgetNs(pt.clock, pt.l1Lat, t), 1, t)
		if len(cands) > 0 {
			// Favour the larger half: small caches at long latency
			// are rarely interesting.
			n.l1Geom = cands[len(cands)/2+rng.Intn((len(cands)+1)/2)]
		}
		return n, "l1-geom"
	}
	cands := timing.CacheCandidates(timing.BudgetNs(pt.clock, pt.l2Lat, t), 2, t)
	if len(cands) > 0 {
		n.l2Geom = cands[len(cands)/2+rng.Intn((len(cands)+1)/2)]
	}
	return n, "l2-geom"
}

func bump(v int, rng *rand.Rand, lo, hi int) int {
	if rng.Intn(2) == 0 {
		v--
	} else {
		v++
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// runChain runs one annealing chain under a pprof label set naming the
// workload and chain, so CPU profiles attribute pipeline samples to the
// benchmark and chain that spent them, and under a chain span when the
// context carries a recorder; the span ends with the chain's result.
// Neither affects the search: no randomness is consumed and no decision
// depends on them.
func runChain(ctx context.Context, p workload.Profile, opt Options, seed int64, chain int) (out Outcome, err error) {
	h := tracing.FromContext(ctx)
	csp := h.Begin(tracing.KindChain, p.Name, int64(chain))
	if csp.ID != 0 {
		ctx = tracing.ChildContext(ctx, csp)
	}
	labels := pprof.Labels("xp_workload", p.Name, "xp_chain", strconv.Itoa(chain))
	pprof.Do(ctx, labels, func(ctx context.Context) {
		out, err = chainBody(ctx, p, opt, seed, chain)
	})
	if csp.ID != 0 && err == nil {
		csp.Attrs = &tracing.ChainAttrs{BestScore: out.BestScore, BestIPT: out.BestIPT, Evaluations: out.Evaluations}
	}
	h.End(csp)
	return out, err
}

func chainBody(ctx context.Context, p workload.Profile, opt Options, seed int64, chain int) (Outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	t := opt.Tech
	eng := opt.Engine
	h := tracing.FromContext(ctx)

	budgetAt := func(iter int) int {
		if iter > opt.Iterations*3/5 {
			return opt.LongBudget
		}
		return opt.ShortBudget
	}
	evaluate := func(ctx context.Context, cfg sim.Config, iter int) (score, ipt float64, err error) {
		ev, err := eng.Evaluate(ctx, cfg, p, budgetAt(iter), t, opt.Objective)
		if err != nil {
			return 0, 0, err
		}
		return ev.Score, ev.Result.IPT(), nil
	}

	cur := initialPoint()
	if opt.FixedClockNs > 0 {
		cur.clock = opt.FixedClockNs
		// The Table 3 stage counts may not cover the pinned period;
		// deepen units until a feasible starting point exists.
		for tries := 0; tries < 8; tries++ {
			if _, ok := cur.fit(t); ok {
				break
			}
			cur.schedDepth = min(cur.schedDepth+1, 5)
			cur.lsqDepth = min(cur.lsqDepth+1, 4)
			cur.l1Lat = min(cur.l1Lat+1, 8)
			cur.l2Lat = min(cur.l2Lat+2, 30)
		}
	}
	curCfg, ok := cur.fit(t)
	if !ok {
		return Outcome{}, fmt.Errorf("explore: initial point infeasible for %s", p.Name)
	}
	out := Outcome{Workload: p.Name}
	curScore, _, err := evaluate(ctx, curCfg, 0)
	if err != nil {
		return Outcome{}, err
	}
	out.Evaluations++
	bestPt, bestScore := cur, curScore

	// Scratch for the best-of-K proposal mode, reused across iterations.
	var (
		nbPts   []point
		nbMoves []string
		nbCfgs  []sim.Config
		nbEvals []evalengine.Eval
	)

	temp := opt.InitTemp * curScore
	for i := 1; i <= opt.Iterations; i++ {
		// The per-iteration cancellation point of the annealing inner
		// loop: one atomic-free pointer chase, zero allocations
		// (BenchmarkAnnealLoopCtxCheck pins the cost).
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		// The step span covers move generation, fit, evaluation and the
		// accept decision, and ends with the step's move and outcome. The
		// disabled path adds two branches per iteration and no
		// allocations (BenchmarkAnnealLoopCtxCheck still pins the loop's
		// overhead).
		ssp := h.Begin(tracing.KindStep, p.Name, int64(i))
		ictx := ctx
		if ssp.ID != 0 {
			ictx = tracing.ChildContext(ctx, ssp)
		}
		var cand point
		var move string
		var candScore float64
		feasible := false
		if k := opt.NeighborhoodK; k >= 2 {
			// Best-of-K proposal: draw K moves, batch-evaluate the
			// feasible ones (the engine runs the cache misses among them
			// in lockstep over one shared stream), keep the top scorer.
			nbPts, nbMoves, nbCfgs = nbPts[:0], nbMoves[:0], nbCfgs[:0]
			for j := 0; j < k; j++ {
				var cp point
				var mv string
				if rng.Intn(4) == 0 {
					cp, mv = geometryMove(cur, rng, t)
				} else {
					cp, mv = neighbor(cur, rng)
				}
				if opt.FixedClockNs > 0 {
					cp.clock = opt.FixedClockNs
				}
				move = mv // last draw names an all-infeasible step
				if cfg, fits := cp.fit(t); fits {
					nbPts = append(nbPts, cp)
					nbMoves = append(nbMoves, mv)
					nbCfgs = append(nbCfgs, cfg)
				}
			}
			if len(nbCfgs) > 0 {
				if cap(nbEvals) < len(nbCfgs) {
					nbEvals = make([]evalengine.Eval, len(nbCfgs))
				}
				evals := nbEvals[:len(nbCfgs)]
				if err := opt.Engine.EvaluateBatch(ictx, evals, nbCfgs, p, budgetAt(i), t, opt.Objective); err != nil {
					h.End(ssp)
					return Outcome{}, err
				}
				out.Evaluations += len(nbCfgs)
				bi := 0
				for j := 1; j < len(evals); j++ {
					if evals[j].Score > evals[bi].Score {
						bi = j
					}
				}
				cand, move, candScore, feasible = nbPts[bi], nbMoves[bi], evals[bi].Score, true
			}
		} else {
			if rng.Intn(4) == 0 {
				cand, move = geometryMove(cur, rng, t)
			} else {
				cand, move = neighbor(cur, rng)
			}
			if opt.FixedClockNs > 0 {
				cand.clock = opt.FixedClockNs
			}
			if candCfg, ok := cand.fit(t); ok {
				cs, _, err := evaluate(ictx, candCfg, i)
				if err != nil {
					h.End(ssp)
					return Outcome{}, err
				}
				out.Evaluations++
				candScore, feasible = cs, true
			}
		}
		if !feasible {
			if ssp.ID != 0 {
				ssp.Attrs = &tracing.StepAttrs{
					Chain: chain, TotalIterations: opt.Iterations, Move: move, Temperature: temp,
					CurrentScore: curScore, BestScore: bestScore,
				}
			}
			temp *= opt.CoolRate
			h.End(ssp)
			continue
		}

		accepted := false
		if candScore >= curScore || rng.Float64() < math.Exp((candScore-curScore)/math.Max(temp, 1e-9)) {
			cur, curScore = cand, candScore
			accepted = true
		}
		if curScore > bestScore {
			bestPt, bestScore = cur, curScore
		}

		rolledBack := false
		if curScore < bestScore/2 {
			// Paper §3's rollback rule.
			cur, curScore = bestPt, bestScore
			rolledBack = true
		}
		if ssp.ID != 0 {
			ssp.Attrs = &tracing.StepAttrs{
				Chain: chain, TotalIterations: opt.Iterations, Move: move, Temperature: temp,
				Budget: budgetAt(i), Score: candScore, CurrentScore: curScore,
				BestScore: bestScore, Feasible: true, Accepted: accepted,
				RolledBack: rolledBack,
			}
		}
		temp *= opt.CoolRate
		h.End(ssp)
	}

	// Final re-evaluation of the best point at the long budget so the
	// reported IPT is comparable across chains and workloads.
	bestCfg, ok := bestPt.fit(t)
	if !ok {
		return Outcome{}, fmt.Errorf("explore: best point became infeasible for %s", p.Name)
	}
	ev, err := eng.Evaluate(ctx, bestCfg, p, opt.LongBudget, t, opt.Objective)
	if err != nil {
		return Outcome{}, err
	}
	out.Evaluations++
	out.Best = bestCfg
	out.BestIPT = ev.Result.IPT()
	out.BestScore = ev.Score
	return out, nil
}

// Suite explores every profile, in parallel across workloads, then applies
// the paper's cross-seeding rule: each workload is evaluated on every other
// workload's customized configuration, and if some other configuration
// outperforms its own, that configuration replaces it (paper §4.1).
//
// On error — including cancellation — Suite returns the outcomes of the
// workloads that had already completed (in profile order, compacted)
// alongside the error, so an interrupted run can still persist partial
// results. The cross-seeding round is skipped for partial results: it is
// only meaningful over the full suite.
func Suite(ctx context.Context, profiles []workload.Profile, opt Options) ([]Outcome, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	outs := make([]Outcome, len(profiles))
	if err := opt.Engine.Pool().MapCtx(ctx, len(profiles), func(wctx context.Context, i int) error {
		o := opt
		o.Seed = opt.Seed + int64(i)*104729
		var err error
		outs[i], err = Workload(wctx, profiles[i], o)
		return err
	}); err != nil {
		var done []Outcome
		for _, o := range outs {
			if o.Workload != "" {
				done = append(done, o)
			}
		}
		return done, err
	}

	// Cross-seeding round.
	if err := crossSeed(ctx, profiles, outs, opt); err != nil {
		return nil, err
	}
	return outs, nil
}

// crossSeed evaluates each workload on every other outcome's configuration
// and adopts any configuration that beats its own. Each workload's row of
// donor configurations is one batch evaluation, so the donors that miss
// the cache simulate as a lockstep group over one replay of that
// workload's stream; rows run in parallel on the engine's pool.
func crossSeed(ctx context.Context, profiles []workload.Profile, outs []Outcome, opt Options) error {
	n := len(outs)
	scores := make([][]float64, len(profiles))
	raws := make([][]float64, len(profiles))
	eng := opt.Engine
	if err := eng.Pool().MapCtx(ctx, len(profiles), func(jctx context.Context, wi int) error {
		donors := make([]sim.Config, 0, n-1)
		idx := make([]int, 0, n-1)
		for ci := range outs {
			if ci != wi {
				donors = append(donors, outs[ci].Best)
				idx = append(idx, ci)
			}
		}
		if len(donors) == 0 {
			return nil
		}
		row := make([]evalengine.Eval, len(donors))
		if err := eng.EvaluateBatch(jctx, row, donors, profiles[wi], opt.LongBudget, opt.Tech, opt.Objective); err != nil {
			return err
		}
		scores[wi] = make([]float64, n)
		raws[wi] = make([]float64, n)
		for j, ci := range idx {
			scores[wi][ci] = row[j].Score
			raws[wi][ci] = row[j].Result.IPT()
		}
		return nil
	}); err != nil {
		return err
	}
	// Adopt deterministically: best donor by IPT, ties to lowest index.
	type adoption struct {
		wi  int
		ipt float64
		ci  int
		raw float64
	}
	var adoptions []adoption
	for wi := range profiles {
		if scores[wi] == nil {
			continue
		}
		for ci := range outs {
			if wi != ci && scores[wi][ci] > outs[wi].BestScore {
				adoptions = append(adoptions, adoption{wi, scores[wi][ci], ci, raws[wi][ci]})
			}
		}
	}
	sort.Slice(adoptions, func(a, b int) bool {
		if adoptions[a].wi != adoptions[b].wi {
			return adoptions[a].wi < adoptions[b].wi
		}
		if adoptions[a].ipt != adoptions[b].ipt {
			return adoptions[a].ipt > adoptions[b].ipt
		}
		return adoptions[a].ci < adoptions[b].ci
	})
	seen := map[int]bool{}
	for _, a := range adoptions {
		if seen[a.wi] {
			continue
		}
		seen[a.wi] = true
		outs[a.wi].Best = outs[a.ci].Best
		outs[a.wi].BestScore = a.ipt
		outs[a.wi].BestIPT = a.raw
	}
	return nil
}

// RandomConfigs returns up to n distinct valid configurations drawn by
// random walks through the move space from the Table 3 starting point — a
// design-space sampler for regression baselines and coverage studies.
func RandomConfigs(n int, seed int64, t tech.Params) []sim.Config {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []sim.Config
	pt := initialPoint()
	for attempts := 0; len(out) < n && attempts < n*200; attempts++ {
		if rng.Intn(4) == 0 {
			pt, _ = geometryMove(pt, rng, t)
		} else {
			pt, _ = neighbor(pt, rng)
		}
		cfg, ok := pt.fit(t)
		if !ok {
			// Restart walks that wander infeasible.
			pt = initialPoint()
			continue
		}
		key := cfg.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cfg)
	}
	return out
}
