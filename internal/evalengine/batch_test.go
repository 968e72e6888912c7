package evalengine

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
)

// batchConfigs builds k distinct valid configurations shaped like an
// annealing neighborhood around the paper's initial point.
func batchConfigs(tb testing.TB, tp tech.Params, k int) []sim.Config {
	tb.Helper()
	base := sim.InitialConfig(tp)
	cs := make([]sim.Config, k)
	for i := range cs {
		c := base
		switch i % 8 {
		case 1:
			c.ROBSize = 64
		case 2:
			c.IQSize = 32
		case 3:
			c.LSQSize = 32
		case 4:
			c.WakeupMinLat = 2
		case 5:
			c.FrontEndStages = 8
		case 6:
			c.L1DLat = 5
		case 7:
			c.L2Lat = 14
		}
		if err := c.Validate(tp); err != nil {
			tb.Fatalf("config %d invalid: %v", i, err)
		}
		cs[i] = c
	}
	return cs
}

// TestEvaluateBatchMatchesEvaluate is the batch contract: a lockstep batch
// must return, member for member, exactly what independent Evaluate calls
// on a fresh engine return — result and score — while running the group as
// one lockstep simulation.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 8)
	p := testProfile(31)
	const budget = 6000

	batched := New(Options{})
	dst := make([]Eval, len(cs))
	if err := batched.EvaluateBatch(context.Background(), dst, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	scalar := New(Options{})
	for i := range cs {
		want, err := scalar.Evaluate(context.Background(), cs[i], p, budget, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst[i], want) {
			t.Errorf("member %d: batch %+v != scalar %+v", i, dst[i], want)
		}
	}

	s := batched.Stats()
	if s.Requests != 8 || s.Misses != 8 || s.Hits != 0 || s.Deduped != 0 {
		t.Fatalf("all members should miss: %+v", s)
	}
	if s.LockstepGroups != 1 || s.LockstepLanes != 8 || s.ScalarFallbacks != 0 {
		t.Fatalf("8 misses should form one lockstep group: %+v", s)
	}

	// A second identical batch is served entirely from cache: no new
	// simulations, no new groups.
	if err := batched.EvaluateBatch(context.Background(), dst, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if s = batched.Stats(); s.Hits != 8 || s.Misses != 8 || s.LockstepGroups != 1 {
		t.Fatalf("repeat batch should hit: %+v", s)
	}
}

// TestEvaluateBatchPartialMisses pre-warms part of the group: warm members
// must be served as hits and only the cold remainder grouped — and a lone
// cold member runs as a group of one.
func TestEvaluateBatchPartialMisses(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 5)
	p := testProfile(37)
	const budget = 4000

	eng := New(Options{})
	for _, i := range []int{0, 2} {
		if _, err := eng.Evaluate(context.Background(), cs[i], p, budget, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]Eval, len(cs))
	if err := eng.EvaluateBatch(context.Background(), dst, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Hits != 2 || s.Misses != 5 { // 2 warm-up misses + 3 batch misses
		t.Fatalf("2 hits and 3 batch misses expected: %+v", s)
	}
	// The two warm-up Evaluates ran as groups of one.
	if s.LockstepGroups != 3 || s.LockstepLanes != 5 {
		t.Fatalf("cold members should form a 3-lane group: %+v", s)
	}

	// Warm all but one: the lone miss runs as a group of one.
	cs2 := batchConfigs(t, tp, 5)
	cs2[4].IQSize = 16
	if err := eng.EvaluateBatch(context.Background(), dst, cs2, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if s = eng.Stats(); s.LockstepGroups != 4 || s.LockstepLanes != 6 || s.Misses != 6 {
		t.Fatalf("lone miss should run as a group of one: %+v", s)
	}
}

// TestEvaluateBatchDuplicates: the same configuration twice in one batch
// runs once; the second member joins the first as a dedup.
func TestEvaluateBatchDuplicates(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 4)
	cs[3] = cs[1]
	p := testProfile(41)

	eng := New(Options{})
	dst := make([]Eval, len(cs))
	if err := eng.EvaluateBatch(context.Background(), dst, cs, p, 3000, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst[3], dst[1]) {
		t.Errorf("duplicate members differ: %+v vs %+v", dst[3], dst[1])
	}
	s := eng.Stats()
	if s.Requests != 4 || s.Misses != 3 || s.Deduped != 1 {
		t.Fatalf("duplicate should dedup against its twin: %+v", s)
	}
	if s.Requests != s.Hits+s.Deduped+s.Misses {
		t.Fatalf("counters do not add up: %+v", s)
	}
}

// TestEvaluateBatchInvalidMember: an invalid configuration fails its own
// member — named by index, memoized like any evaluation error — without
// poisoning the rest of the group.
func TestEvaluateBatchInvalidMember(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 4)
	cs[2].Width = 0
	p := testProfile(47)

	eng := New(Options{})
	dst := make([]Eval, len(cs))
	err := eng.EvaluateBatch(context.Background(), dst, cs, p, 3000, tp, power.ObjIPT)
	if err == nil || !strings.Contains(err.Error(), "member 2") {
		t.Fatalf("invalid member not identified: %v", err)
	}
	for _, i := range []int{0, 1, 3} {
		if dst[i].Result.Workload != p.Name {
			t.Errorf("member %d not evaluated: %+v", i, dst[i])
		}
		ev, err := eng.Evaluate(context.Background(), cs[i], p, 3000, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ev, dst[i]) {
			t.Errorf("member %d not memoized consistently", i)
		}
	}
	s := eng.Stats()
	if s.LockstepGroups != 1 || s.LockstepLanes != 3 {
		t.Fatalf("valid members should still group: %+v", s)
	}
	// The invalid member's error is memoized too.
	if _, err2 := eng.Evaluate(context.Background(), cs[2], p, 3000, tp, power.ObjIPT); err2 == nil {
		t.Fatal("memoized error lost")
	}
	if s = eng.Stats(); s.Hits != 4 {
		t.Fatalf("followup evaluations should all hit: %+v", s)
	}
}

// TestEvaluateBatchFailedGroupRetries: a group whose run fails in the
// kernel layer (here the stream cannot be sourced: the profile is
// invalid) is retried member by member as groups of one, and every member
// memoizes its own error — the same error a lone Evaluate returns.
func TestEvaluateBatchFailedGroupRetries(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 3)
	p := testProfile(59)
	p.LoadFrac = 2 // fractions sum past 1: no generator accepts it

	eng := New(Options{})
	err := eng.EvaluateBatch(context.Background(), make([]Eval, len(cs)), cs, p, 3000, tp, power.ObjIPT)
	if err == nil || !strings.Contains(err.Error(), "member 0") {
		t.Fatalf("failed group not reported against member 0: %v", err)
	}
	s := eng.Stats()
	if s.ScalarFallbacks != 1 || s.LockstepGroups != 0 || s.Misses != 3 {
		t.Fatalf("one failed group retried as groups of one expected: %+v", s)
	}
	_, want := New(Options{}).Evaluate(context.Background(), cs[0], p, 3000, tp, power.ObjIPT)
	if want == nil {
		t.Fatal("lone evaluation on an invalid profile succeeded")
	}
	for i := range cs {
		_, err := eng.Evaluate(context.Background(), cs[i], p, 3000, tp, power.ObjIPT)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("member %d memoized %v, want %v", i, err, want)
		}
	}
	if s = eng.Stats(); s.Hits != 3 || s.ScalarFallbacks != 1 {
		t.Fatalf("memoized errors should be served as hits: %+v", s)
	}
}

// TestEvaluateBatchConcurrent interleaves batches and scalar Evaluates
// over overlapping points from many goroutines; run under -race. Whatever
// the interleaving, every caller must see identical results and the
// counters must balance.
func TestEvaluateBatchConcurrent(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 6)
	p := testProfile(53)
	const budget = 3000

	eng := New(Options{})
	ref := make([]Eval, len(cs))
	refEng := New(Options{})
	if err := refEng.EvaluateBatch(context.Background(), ref, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				dst := make([]Eval, len(cs))
				if err := eng.EvaluateBatch(context.Background(), dst, cs, p, budget, tp, power.ObjIPT); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(dst, ref) {
					t.Errorf("goroutine %d: batch diverged", g)
				}
				return
			}
			for i := range cs {
				ev, err := eng.Evaluate(context.Background(), cs[i], p, budget, tp, power.ObjIPT)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ev, ref[i]) {
					t.Errorf("goroutine %d member %d: scalar diverged", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	s := eng.Stats()
	if s.Requests != 24 || s.Hits+s.Deduped+s.Misses != s.Requests {
		t.Fatalf("counters do not add up: %+v", s)
	}
	if s.Misses > 6 {
		t.Fatalf("point evaluated more than once: %+v", s)
	}
}

// TestEvaluateBatchSizeMismatch guards the dst contract.
func TestEvaluateBatchSizeMismatch(t *testing.T) {
	tp := tech.Default()
	eng := New(Options{})
	err := eng.EvaluateBatch(context.Background(), make([]Eval, 1), batchConfigs(t, tp, 2), testProfile(1), 100, tp, power.ObjIPT)
	if err == nil {
		t.Error("size mismatch accepted")
	}
	if err := eng.EvaluateBatch(context.Background(), nil, nil, testProfile(1), 100, tp, power.ObjIPT); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}
