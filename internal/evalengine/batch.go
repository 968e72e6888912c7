// Batch evaluation — the engine's one evaluation path. Exploration rarely
// asks for one design point at a time: an annealing neighborhood is K
// one-knob moves around the current point, a characterization-matrix row
// is every customized configuration against one profile — always several
// configurations against ONE (workload, budget) pair. EvaluateBatch is the
// engine face of that shape: members that hit the memo cache or join
// in-flight simulations are served from there, and the members that
// actually miss are run as one lockstep group over one shared instruction
// stream (sim.MultiRunner), so the stream is fetched and transposed once
// per group instead of once per configuration. Evaluate is the same body
// with one member, whose miss runs as a group of one. Results are
// bit-identical however the members are grouped; only the wall time
// changes.

package evalengine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"xpscalar/internal/pipeline"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// batchClaim is one member's memo-cache classification inside a batch.
type batchClaim struct {
	entry   *memoEntry
	key     Key
	outcome string // "hit", "dedup", "disk", or "miss" (this call owns the entry)
	// wallNs is the member's share of its lockstep group's wall time,
	// measured only when a histogram or a span wants it.
	wallNs int64
	// intervals is the member's interval series, copied out of its
	// lockstep lane only when the request span will carry it.
	intervals []pipeline.IntervalRecord
}

// outcomeKinds maps a one-member request's outcome to its span kind.
var outcomeKinds = map[string]string{
	"hit":   tracing.KindEvalHit,
	"dedup": tracing.KindEvalDedup,
	"disk":  tracing.KindEvalDisk,
	"miss":  tracing.KindEvalMiss,
}

// EvaluateBatch evaluates every configuration in cfgs against one
// (workload, budget, technology, objective) tuple — the grouping callers
// already have in hand — writing dst[i] for cfgs[i]. Cache semantics are
// identical to len(cfgs) Evaluate calls: each member counts as a request
// and is served as a hit, an in-flight join, a persistent-tier hit, or a
// miss, and every miss is memoized (errors included) for future callers.
// The valid misses run as one lockstep group sharing a single replay of
// the workload's stream; an invalid configuration memoizes its validation
// error without simulating, and a group that fails at the kernel layer is
// retried member by member as groups of one, so grouping can never change
// an answer.
//
// The return is the lowest-index member error (nil when every member
// succeeded); dst entries for failed members are zero. Cancellation
// mirrors Evaluate: ctx is checked on entry and while waiting on
// simulations owned by other goroutines, and a context error is never
// memoized. Misses claimed by this call always run to completion.
func (e *Engine) EvaluateBatch(ctx context.Context, dst []Eval, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) error {
	if len(dst) != len(cfgs) {
		return fmt.Errorf("evalengine: batch: %d results for %d configs", len(dst), len(cfgs))
	}
	if len(cfgs) == 0 {
		return nil
	}
	i, err := e.evaluate(ctx, dst, cfgs, p, budget, t, obj, true)
	if i >= 0 {
		return fmt.Errorf("evalengine: batch member %d: %w", i, err)
	}
	return err
}

// evaluate is the body behind Evaluate and EvaluateBatch. It returns the
// lowest failing member's index with that member's own error, or -1 with
// nil on success or the context error on cancellation. The request span
// is eval.batch for a batch; a single request's span is finalized to the
// kind of its outcome. A completed span ends with every member's result.
func (e *Engine) evaluate(ctx context.Context, dst []Eval, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective, batch bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	k := len(cfgs)
	h := tracing.FromContext(ctx)
	kind, arg := tracing.KindEvalMiss, int64(budget)
	if batch {
		kind, arg = tracing.KindEvalBatch, int64(k)
	}
	sp := h.Begin(kind, p.Name, arg)
	hb := h.WithParent(sp)

	// Classify every member against the memo cache. Duplicate
	// configurations within the batch resolve naturally: the first claims
	// the miss, the rest join it as dedups and are served once the owned
	// simulations below have closed their entries.
	e.requests.Add(uint64(k))
	be := e.tier()
	claims := make([]batchClaim, k)
	var owned []int // indices whose memo entry this call claimed
	for i := range cfgs {
		key := KeyOf(cfgs[i], p, budget, t, obj)
		me, outcome := e.claim(key)
		claims[i] = batchClaim{entry: me, key: key, outcome: outcome}
		switch outcome {
		case "hit":
			e.hits.Add(1)
		case "dedup":
			e.deduped.Add(1)
		case "miss":
			owned = append(owned, i)
		}
	}

	// Read-through: the owned misses go to the persistent tier in one
	// exchange — one sequential disk pass, one POST per remote peer, one
	// plain GET for a lone miss — instead of a round trip per key. A tier
	// hit resolves the claimed entry on the spot (promoting the record into
	// the memory LRU, where claim already inserted it) and never occupies a
	// lockstep lane; only the keys every tier missed go on to simulate. A
	// tier record that does not answer its member's request is a miss: the
	// member simulates, and the write-behind Put below replaces the record.
	// A lone miss, an annealing step's usual request, is read into lone
	// rather than a map.
	var found map[Key]Eval
	var lone Eval
	var loneOK bool
	if be != nil && len(owned) > 0 {
		tctx := tracing.ChildContext(ctx, sp)
		if len(owned) == 1 {
			lone, loneOK = backendGet(tctx, be, claims[owned[0]].key)
		} else {
			keys := make([]Key, len(owned))
			for j, i := range owned {
				keys[j] = claims[i].key
			}
			found = backendGetBatch(tctx, be, keys)
		}
	}
	var lanes []int // valid owned misses: the lockstep group
	for _, i := range owned {
		me := claims[i].entry
		val, ok := lone, loneOK
		if len(owned) > 1 {
			val, ok = found[claims[i].key]
		}
		if ok && answers(val, cfgs[i], p.Name, budget) {
			e.diskHits.Add(1)
			me.val = val
			close(me.ready)
			claims[i].outcome = "disk"
			continue
		}
		if be != nil {
			e.diskMisses.Add(1)
		}
		e.misses.Add(1)
		if err := cfgs[i].Validate(t); err != nil {
			// An invalid configuration never reaches the kernel; its
			// validation error is the member's memoized result.
			me.err = err
			close(me.ready)
			continue
		}
		lanes = append(lanes, i)
	}
	if !batch {
		sp.Kind = outcomeKinds[claims[0].outcome]
	}
	if len(lanes) > 0 {
		e.runGroup(hb, lanes, claims, cfgs, p, budget, t, obj)
	}

	// Write-behind: every successful simulation this call owned goes to
	// the persistent tier. Disk-served members are already durable, and
	// errors are never persisted — they are memoized in memory for this
	// process only, so a transient failure cannot outlive it.
	if be != nil {
		for i := range claims {
			if claims[i].outcome == "miss" && claims[i].entry.err == nil {
				be.Put(claims[i].key, claims[i].entry.val)
			}
		}
	}

	// Collect. Every entry owned by this call is closed by now, so waiting
	// here can only block on other goroutines' in-flight simulations —
	// which is the one place cancellation may interrupt an evaluation.
	failed, firstErr := -1, error(nil)
	for i := range claims {
		me := claims[i].entry
		if claims[i].outcome == "dedup" {
			select {
			case <-me.ready:
			case <-ctx.Done():
				// The simulation we joined keeps running in its owner's
				// goroutine and will be memoized there; only this waiter
				// gives up.
				h.End(sp)
				return -1, ctx.Err()
			}
		}
		if me.err != nil {
			if failed < 0 {
				failed, firstErr = i, me.err
			}
			continue
		}
		dst[i] = me.val
	}
	if sp.ID != 0 {
		sp.Attrs = evalAttrs(budget, claims)
	}
	h.End(sp)
	return failed, firstErr
}

// answers reports whether a tier record is the evaluation of the request
// it is served for. Tiers are addressed by key alone, so a record stored
// under the wrong key — a PUT to a peer, which cannot re-derive keys, is
// taken on trust — would otherwise answer a different design point.
func answers(val Eval, cfg sim.Config, name string, budget int) bool {
	r := &val.Result
	return r.Config == cfg && r.Workload == name && r.Instructions == uint64(budget)
}

// evalAttrs captures every member's result for the request span. Each
// entry is resolved and immutable by now, so the configuration and CPI
// stack are held by reference into it, as the interval series is into its
// claim, and rendered only if the span is written out.
func evalAttrs(budget int, claims []batchClaim) *tracing.EvalAttrs {
	a := &tracing.EvalAttrs{Budget: budget, Members: make([]tracing.EvalMember, len(claims))}
	for i := range claims {
		me, m := claims[i].entry, &a.Members[i]
		m.Outcome, m.WallNs = claims[i].outcome, claims[i].wallNs
		if me.err != nil {
			m.Err = me.err
			continue
		}
		res := &me.val.Result
		m.Score, m.IPT, m.Config = me.val.Score, res.IPT(), &res.Config
		if res.CPI != (pipeline.CPIStack{}) {
			m.CPI = &res.CPI
		}
		if len(claims[i].intervals) > 0 {
			m.Intervals = claims[i].intervals
		}
	}
	return a
}

// runGroup simulates the valid owned misses in lanes as one lockstep group
// and memoizes each member's result. A group of two or more whose run
// fails is retried member by member as groups of one, so a failure stays
// with the member that caused it and each member memoizes its own error.
func (e *Engine) runGroup(h tracing.Handle, lanes []int, claims []batchClaim, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) {
	hist := e.simHist.Load()
	timed := hist != nil || h.Enabled()
	var begin time.Time
	if timed {
		begin = time.Now()
	}
	// Loaded once per group and re-applied to the pooled runner every run:
	// MultiRunners migrate between armed and disarmed phases.
	iv := e.intro.Load()
	results := make([]sim.Result, len(lanes))
	err := e.runLockstep(h, results, lanes, claims, cfgs, p, budget, t, iv)
	if err != nil && len(lanes) > 1 {
		// The stream may have partially advanced; each retry re-sources
		// its member from the trace store, so nothing depends on it.
		e.scalarFallbacks.Add(1)
		for j := range lanes {
			e.runGroup(h, lanes[j:j+1], claims, cfgs, p, budget, t, obj)
		}
		return
	}
	if err == nil {
		e.lockstepGroups.Add(1)
		e.lockstepLanes.Add(uint64(len(lanes)))
		if gh := e.groupHist.Load(); gh != nil {
			gh.Observe(float64(len(lanes)))
		}
	}
	// The group's wall time is amortized evenly across its lanes: each
	// lane's observation answers "what did this evaluation cost?", and
	// under lockstep that is the shared run divided by the lanes riding it.
	var wallPer time.Duration
	if timed {
		wallPer = time.Since(begin) / time.Duration(len(lanes))
	}
	for j, i := range lanes {
		me := claims[i].entry
		if err != nil {
			me.err = err
		} else {
			score, serr := power.Score(results[j], obj, t)
			if serr != nil {
				me.err = serr
			} else {
				me.val = Eval{Result: results[j], Score: score}
			}
		}
		close(me.ready)
		claims[i].wallNs = wallPer.Nanoseconds()
		if hist != nil {
			hist.Observe(wallPer.Seconds())
		}
	}
}

// runLockstep runs one lockstep group over a replay of the profile's
// cached instruction stream, writing dst[j] for cfgs[lanes[j]]. The
// handle (parented at the request span) splits the run into a
// source-materialization span and the simulation proper. When the group
// succeeds with interval sampling armed and the request span is live
// (the handle is enabled exactly when its ID is non-zero), each member's
// claim gets a copy of its lane's series before the runner returns to the
// pool.
func (e *Engine) runLockstep(h tracing.Handle, dst []sim.Result, lanes []int, claims []batchClaim, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, interval *int) error {
	ssp := h.Begin(tracing.KindSource, p.Name, int64(budget))
	src, err := e.traces.source(p, budget)
	h.End(ssp)
	if err != nil {
		return err
	}
	group := make([]sim.Config, len(lanes))
	for j, i := range lanes {
		group[j] = cfgs[i]
	}
	mr := e.multis.Get().(*sim.MultiRunner)
	if interval != nil {
		mr.SetIntrospection(*interval)
	} else {
		mr.DisableIntrospection()
	}
	msp := h.Begin(tracing.KindSimulate, p.Name, int64(budget)*int64(len(lanes)))
	err = mr.RunSource(dst, group, src, p.Name, budget, t)
	h.End(msp)
	if err == nil && interval != nil && *interval > 0 && h.Enabled() {
		for j, i := range lanes {
			claims[i].intervals = slices.Clone(mr.LaneIntervals(j))
		}
	}
	e.multis.Put(mr)
	return err
}
