// EngineSource composition: the cache server must serve the engine's
// memory tier and the LOCAL disk tier only, and a fleet PUT must warm the
// memory LRU without re-entering any backend (that is what keeps peers
// from proxy-looping PUTs through each other).

package evalremote

import (
	"context"
	"reflect"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
)

func TestEngineSource(t *testing.T) {
	eng := evalengine.New(evalengine.Options{})
	t.Cleanup(func() { eng.Close() })
	disk, err := evalstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	src := EngineSource{Engine: eng, Disk: disk}
	ctx := context.Background()

	if _, ok := src.Lookup(ctx, synthKey(1)); ok {
		t.Fatal("lookup hit on an empty source")
	}

	// Store warms both local tiers: the memory LRU answers Peek, the disk
	// store holds the record durably.
	want := testEval(3.5)
	src.Store(synthKey(1), want)
	if got, ok := eng.Peek(synthKey(1)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("engine memory tier after Store: got %+v, %v", got, ok)
	}
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := disk.Get(synthKey(1)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk tier after Store: got %+v, %v", got, ok)
	}
	if got, ok := src.Lookup(ctx, synthKey(1)); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("lookup after Store: got %+v, %v", got, ok)
	}

	// A record only on disk (cold memory, as after a restart) is still
	// served.
	disk.Put(synthKey(2), testEval(7))
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := src.Lookup(ctx, synthKey(2)); !ok {
		t.Fatal("lookup missed a disk-only record")
	}

	// Disk-less composition (memory-only server) still works.
	memOnly := EngineSource{Engine: eng}
	if _, ok := memOnly.Lookup(ctx, synthKey(1)); !ok {
		t.Fatal("memory-only lookup missed a memoized record")
	}
	if _, ok := memOnly.Lookup(ctx, synthKey(9)); ok {
		t.Fatal("memory-only lookup hit an absent key")
	}
}
