// The cache key's contract: a canonical digest of the full request tuple
// — stable across processes (it addresses the persistent tiers), unique
// per distinct request, and round-trippable through its hex form.

package evalengine

import (
	"crypto/sha256"
	"strings"
	"testing"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
)

func TestKeyOfIsPreimageDigest(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(1)
	k := KeyOf(cfg, p, 5000, tp, power.ObjIPT)
	want := Key(sha256.Sum256(appendRequest(nil, cfg, p, 5000, tp, power.ObjIPT)))
	if k != want {
		t.Fatalf("KeyOf diverged from the digest of its own preimage")
	}
	if k2 := KeyOf(cfg, p, 5000, tp, power.ObjIPT); k2 != k {
		t.Fatalf("KeyOf not deterministic: %s vs %s", k, k2)
	}
}

// TestKeyOfAllocs: deriving a key allocates nothing; the preimage lives
// in a stack buffer.
func TestKeyOfAllocs(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(1)
	if n := testing.AllocsPerRun(100, func() { KeyOf(cfg, p, 5000, tp, power.ObjIPT) }); n != 0 {
		t.Fatalf("KeyOf: %v allocs, want 0", n)
	}
}

func TestKeySeparatesRequests(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(1)
	base := KeyOf(cfg, p, 5000, tp, power.ObjIPT)

	cfg2 := cfg
	cfg2.ROBSize++
	p2 := testProfile(2)
	variants := map[string]Key{
		"config":    KeyOf(cfg2, p, 5000, tp, power.ObjIPT),
		"profile":   KeyOf(cfg, p2, 5000, tp, power.ObjIPT),
		"budget":    KeyOf(cfg, p, 5001, tp, power.ObjIPT),
		"objective": KeyOf(cfg, p, 5000, tp, power.ObjIPTPerWatt),
	}
	for dim, k := range variants {
		if k == base {
			t.Errorf("changing the %s did not change the key", dim)
		}
	}
}

func TestKeyStringAndParse(t *testing.T) {
	tp := tech.Default()
	k := KeyOf(sim.InitialConfig(tp), testProfile(3), 5000, tp, power.ObjIPT)

	s := k.String()
	if len(s) != 64 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 64 lowercase hex digits", s)
	}

	got, ok := ParseKey(s)
	if !ok || got != k {
		t.Fatalf("ParseKey(%q) = %v, %v; want the original key", s, got, ok)
	}
	for _, bad := range []string{"", "xyz", s[:63], s + "0", strings.Replace(s, s[:1], "g", 1)} {
		if _, ok := ParseKey(bad); ok {
			t.Errorf("ParseKey(%q) accepted a malformed key", bad)
		}
	}
}

func TestKeyShardIndexSpreads(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	const shards = 16
	seen := make(map[int]bool)
	for budget := 1000; budget < 1000+64; budget++ {
		k := KeyOf(cfg, testProfile(7), budget, tp, power.ObjIPT)
		idx := k.shardIndex(shards)
		if idx < 0 || idx >= shards {
			t.Fatalf("shardIndex out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) < shards/2 {
		t.Errorf("64 distinct keys landed on only %d/%d shards", len(seen), shards)
	}
}
