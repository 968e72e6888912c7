// Tier composition and the batched read-through. Tiered's contract is
// behavioral (promotion, fan-out, field-wise stats) and EvaluateBatch's
// is economic: a group of owned misses must cost the persistent tier ONE
// multi-get, not one probe per key.

package evalengine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
)

// memBackend is an in-memory CacheBackend recording its traffic. It has
// no GetBatch, so reads through it exercise the per-key fallback.
type memBackend struct {
	mu      sync.Mutex
	m       map[Key]Eval
	gets    int
	batches int
}

func newMemBackend() *memBackend {
	return &memBackend{m: make(map[Key]Eval)}
}

func (b *memBackend) Get(k Key) (Eval, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	v, ok := b.m[k]
	return v, ok
}

// batchBackend adds the BatchGetter face to a memBackend.
type batchBackend struct{ *memBackend }

func newBatchBackend() *batchBackend {
	return &batchBackend{newMemBackend()}
}

func (b *batchBackend) GetBatch(keys []Key) map[Key]Eval {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.batches++
	found := make(map[Key]Eval)
	for _, k := range keys {
		if v, ok := b.m[k]; ok {
			found[k] = v
		}
	}
	return found
}

func (b *memBackend) Put(k Key, v Eval) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = v
}

func (b *memBackend) Flush() error { return nil }
func (b *memBackend) Close() error { return nil }

func (b *memBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{Entries: uint64(len(b.m))}
}

func (b *memBackend) has(k Key) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[k]
	return ok
}

func synthEval(score float64) Eval {
	e := Eval{Score: score}
	e.Result.Workload = "unit"
	e.Result.Instructions = 1000
	return e
}

func synthKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i][0] = byte(i + 1)
	}
	return keys
}

// TestTieredCollapse: the composition disappears at zero or one live
// tier.
func TestTieredCollapse(t *testing.T) {
	if Tiered() != nil || Tiered(nil, nil) != nil {
		t.Fatal("empty composition should be nil")
	}
	be := newMemBackend()
	if got := Tiered(nil, be); got != CacheBackend(be) {
		t.Fatal("single live tier should collapse to the tier itself")
	}
}

// TestTieredPromotion: a hit in a slow tier is promoted into every
// faster tier on the way out, for both the single and batched reads.
func TestTieredPromotion(t *testing.T) {
	fast, slow := newMemBackend(), newBatchBackend()
	tiers := Tiered(fast, slow)
	keys := synthKeys(4)
	want := synthEval(2.5)
	slow.Put(keys[0], want)

	got, ok := tiers.Get(keys[0])
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("tiered Get: %+v, %v", got, ok)
	}
	if !fast.has(keys[0]) {
		t.Fatal("hit was not promoted into the faster tier")
	}
	if _, ok := tiers.Get(keys[1]); ok {
		t.Fatal("tiered Get hit an absent key")
	}

	// Batched: keys split across tiers, all resolved, slow-tier hits
	// promoted; the slow tier is asked once (it is batchable).
	fast.Put(keys[2], synthEval(1))
	slow.Put(keys[3], synthEval(3))
	slow.mu.Lock()
	slow.batches = 0
	slow.mu.Unlock()
	found := tiers.(*tiered).GetBatch(keys)
	if len(found) != 3 {
		t.Fatalf("batch resolved %d keys, want 3 (one absent)", len(found))
	}
	if !fast.has(keys[3]) {
		t.Fatal("batched hit was not promoted into the faster tier")
	}
	slow.mu.Lock()
	batches := slow.batches
	slow.mu.Unlock()
	if batches != 1 {
		t.Fatalf("slow tier saw %d batch calls, want 1", batches)
	}
}

// TestTieredPutAndStats: Put fans out to every tier and Stats sums
// field-wise.
func TestTieredPutAndStats(t *testing.T) {
	a, b := newMemBackend(), newMemBackend()
	tiers := Tiered(a, b)
	k := synthKeys(1)[0]
	tiers.Put(k, synthEval(1))
	if !a.has(k) || !b.has(k) {
		t.Fatal("Put did not fan out to every tier")
	}
	if s := tiers.Stats(); s.Entries != 2 {
		t.Fatalf("summed entries %d, want 2", s.Entries)
	}
	if err := tiers.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tiers.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchReadThrough: a fully tier-warm batch is served with exactly
// one multi-get against the backend, zero simulations, and values
// bit-identical to what the tier holds.
func TestBatchReadThrough(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 6)
	p := testProfile(77)
	const budget = 5000

	be := newBatchBackend()
	want := make([]Eval, len(cs))
	for i := range cs {
		// Synthetic, so a simulation cannot pass for it, but addressed to
		// its member's request, which a tier record must answer.
		want[i] = synthEval(float64(i) + 1)
		want[i].Result.Config, want[i].Result.Workload, want[i].Result.Instructions = cs[i], p.Name, budget
		be.Put(KeyOf(cs[i], p, budget, tp, power.ObjIPT), want[i])
	}

	e := New(Options{Backend: be})
	dst := make([]Eval, len(cs))
	if err := e.EvaluateBatch(context.Background(), dst, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("tier-served batch diverged:\n got %+v\nwant %+v", dst, want)
	}
	s := e.Stats()
	if s.DiskHits != 6 || s.Misses != 0 || s.LockstepGroups != 0 {
		t.Fatalf("stats %+v, want 6 disk hits, 0 misses, 0 simulations", s)
	}
	be.mu.Lock()
	gets, batches := be.gets, be.batches
	be.mu.Unlock()
	if batches != 1 || gets != 0 {
		t.Fatalf("backend saw %d batch calls and %d single gets, want 1 and 0", batches, gets)
	}

	// The records are promoted into the memory LRU: a second batch is all
	// memory hits and the backend sees no further reads.
	dst2 := make([]Eval, len(cs))
	if err := e.EvaluateBatch(context.Background(), dst2, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.Hits != 6 {
		t.Fatalf("second batch should be all memory hits: %+v", s)
	}
	be.mu.Lock()
	batches = be.batches
	be.mu.Unlock()
	if batches != 1 {
		t.Fatalf("backend saw %d batch calls after a warm batch, want still 1", batches)
	}
}

// TestLoneTierHitAllocs gates a one-member request served by the tier.
// One shard with an LRU of one entry and two alternating keys make every
// call a memory miss and a tier hit, so each pays the whole read-through:
// claim, tier Get, the answers check and the promotion. The lone key is a
// plain Get that builds no map.
func TestLoneTierHitAllocs(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 2)
	p := testProfile(80)
	const budget = 5000

	be := newMemBackend()
	for _, cfg := range cs {
		v := synthEval(1)
		v.Result.Config, v.Result.Workload, v.Result.Instructions = cfg, p.Name, budget
		be.Put(KeyOf(cfg, p, budget, tp, power.ObjIPT), v)
	}
	e := New(Options{CacheEntries: 1, Shards: 1, Backend: be})
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Evaluate(ctx, cs[i%2], p, budget, tp, power.ObjIPT); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if s := e.Stats(); s.Hits != 0 || s.DiskHits != s.Requests {
		t.Fatalf("stats %+v, want every request a tier hit", s)
	}
	t.Logf("a lone tier hit allocates %v", allocs)
	if allocs > 5 {
		t.Errorf("a lone tier hit allocates %v, want at most 5", allocs)
	}
}

// TestTierRecordMustAnswerRequest: a tier record stored under the wrong
// key — here the Table 3 configuration's evaluation, put under the key of
// a ROB-64/IQ-32 request — is a tier miss. The request simulates and
// gets its own result, and the write-behind replaces the bad record.
func TestTierRecordMustAnswerRequest(t *testing.T) {
	tp := tech.Default()
	p := testProfile(79)
	const budget = 5000
	initial := sim.InitialConfig(tp)
	cfg := initial
	cfg.ROBSize, cfg.IQSize = 64, 32
	key := KeyOf(cfg, p, budget, tp, power.ObjIPT)

	wrong, err := New(Options{}).Evaluate(context.Background(), initial, p, budget, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	be := newMemBackend()
	be.Put(key, wrong)

	res, err := sim.Run(cfg, p, budget, tp)
	if err != nil {
		t.Fatal(err)
	}
	score, err := power.Score(res, power.ObjIPT, tp)
	if err != nil {
		t.Fatal(err)
	}
	want := Eval{Result: res, Score: score}

	e := New(Options{Backend: be})
	got, err := e.Evaluate(context.Background(), cfg, p, budget, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served IPT %.4f, want the request's own %.4f", got.Result.IPT(), want.Result.IPT())
	}
	if s := e.Stats(); s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("stats %+v, want 1 miss and 0 disk hits", s)
	}
	if held, _ := be.Get(key); !reflect.DeepEqual(held, want) {
		t.Fatalf("backend still holds IPT %.4f under the key, want %.4f", held.Result.IPT(), want.Result.IPT())
	}
}

// TestBatchReadThroughPartial: a half-warm batch pulls the warm half
// from the tier in the same single multi-get and simulates only the
// cold half.
func TestBatchReadThroughPartial(t *testing.T) {
	tp := tech.Default()
	cs := batchConfigs(t, tp, 4)
	p := testProfile(78)
	const budget = 5000

	warm := New(Options{})
	be := newBatchBackend()
	for i := 0; i < 2; i++ {
		v, err := warm.Evaluate(context.Background(), cs[i], p, budget, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		be.Put(KeyOf(cs[i], p, budget, tp, power.ObjIPT), v)
	}

	e := New(Options{Backend: be})
	dst := make([]Eval, len(cs))
	if err := e.EvaluateBatch(context.Background(), dst, cs, p, budget, tp, power.ObjIPT); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.DiskHits != 2 || s.Misses != 2 {
		t.Fatalf("stats %+v, want 2 disk hits and 2 misses", s)
	}
	// The two simulated members were written through to the tier.
	for i := 2; i < 4; i++ {
		if !be.has(KeyOf(cs[i], p, budget, tp, power.ObjIPT)) {
			t.Fatalf("member %d was simulated but not written through", i)
		}
	}
	// Every member matches an independent scalar evaluation.
	scalar := New(Options{})
	for i := range cs {
		v, err := scalar.Evaluate(context.Background(), cs[i], p, budget, tp, power.ObjIPT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst[i], v) {
			t.Errorf("member %d: batch %+v != scalar %+v", i, dst[i], v)
		}
	}
}
