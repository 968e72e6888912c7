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
	"time"

	"xpscalar/internal/introspect"
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
// kind of its outcome.
func (e *Engine) evaluate(ctx context.Context, dst []Eval, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective, batch bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return -1, err
	}
	k := len(cfgs)
	obs := e.obs.Load()
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
	// lockstep lane; only the keys every tier missed go on to simulate.
	var found map[Key]Eval
	if be != nil && len(owned) > 0 {
		keys := make([]Key, len(owned))
		for j, i := range owned {
			keys[j] = claims[i].key
		}
		found = backendGetBatch(tracing.ChildContext(ctx, sp), be, keys)
	}
	var lanes []int // valid owned misses: the lockstep group
	for _, i := range owned {
		me := claims[i].entry
		if val, ok := found[claims[i].key]; ok {
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
			if obs != nil {
				(*obs).ObserveEval(record(p.Name, budget, "miss", 0, me.val, me.err))
			}
			continue
		}
		lanes = append(lanes, i)
	}
	if !batch {
		sp.Kind = outcomeKinds[claims[0].outcome]
	}
	if len(lanes) > 0 {
		e.runGroup(hb, lanes, claims, cfgs, p, budget, t, obj, obs)
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
		if claims[i].outcome != "miss" && obs != nil {
			(*obs).ObserveEval(record(p.Name, budget, claims[i].outcome, 0, me.val, me.err))
		}
		if me.err != nil {
			if failed < 0 {
				failed, firstErr = i, me.err
			}
			continue
		}
		dst[i] = me.val
	}
	h.End(sp)
	return failed, firstErr
}

// runGroup simulates the valid owned misses in lanes as one lockstep group
// and memoizes each member's result. A group of two or more whose run
// fails is retried member by member as groups of one, so a failure stays
// with the member that caused it and each member memoizes its own error.
func (e *Engine) runGroup(h tracing.Handle, lanes []int, claims []batchClaim, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective, obs *EvalObserver) {
	hist := e.simHist.Load()
	var begin time.Time
	if hist != nil || obs != nil {
		begin = time.Now()
	}
	// Loaded once per group and re-applied to the pooled runner every run:
	// MultiRunners migrate between armed and disarmed phases, so a stale
	// tap must never survive the pool.
	ic := e.intro.Load()
	results := make([]sim.Result, len(lanes))
	err := e.runLockstep(h, results, lanes, cfgs, p, budget, t, ic)
	if err != nil && len(lanes) > 1 {
		// The stream may have partially advanced; each retry re-sources
		// its member from the trace store, so nothing depends on it.
		e.scalarFallbacks.Add(1)
		for j := range lanes {
			e.runGroup(h, lanes[j:j+1], claims, cfgs, p, budget, t, obj, obs)
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
	if hist != nil || obs != nil {
		wallPer = time.Since(begin) / time.Duration(len(lanes))
	}
	for j, i := range lanes {
		me := claims[i].entry
		if err != nil {
			me.err = err
		} else {
			if ic != nil {
				e.addCPITotals(results[j].CPI)
			}
			score, serr := power.Score(results[j], obj, t)
			if serr != nil {
				me.err = serr
			} else {
				me.val = Eval{Result: results[j], Score: score}
			}
		}
		close(me.ready)
		if hist != nil {
			hist.Observe(wallPer.Seconds())
		}
		if obs != nil {
			(*obs).ObserveEval(record(p.Name, budget, "miss", wallPer.Nanoseconds(), me.val, me.err))
		}
	}
}

// runLockstep runs one lockstep group over a replay of the profile's
// cached instruction stream, writing dst[j] for cfgs[lanes[j]]. The
// handle (parented at the request span) splits the run into a
// source-materialization span and the simulation proper.
func (e *Engine) runLockstep(h tracing.Handle, dst []sim.Result, lanes []int, cfgs []sim.Config, p workload.Profile, budget int, t tech.Params, ic *introCfg) error {
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
	if ic != nil {
		var recs []pipeline.IntervalRecorder
		if ic.ring != nil && ic.interval > 0 {
			// Fresh taps per run, labeled for this group's lanes.
			recs = make([]pipeline.IntervalRecorder, len(lanes))
			for j := range group {
				tap := &introspect.Tap{}
				tap.Init(ic.ring, p.Name, group[j].String(), j)
				recs[j] = tap
			}
		}
		mr.SetIntrospection(ic.interval, recs)
	} else {
		mr.DisableIntrospection()
	}
	msp := h.Begin(tracing.KindSimulate, p.Name, int64(budget)*int64(len(lanes)))
	err = mr.RunSource(dst, group, src, p.Name, budget, t)
	h.End(msp)
	e.multis.Put(mr)
	return err
}
