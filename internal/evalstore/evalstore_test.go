// Crash and corruption semantics of the persistent tier: whatever is on
// disk — truncated records, stale format versions, half-written temp
// files — opening the store and reading through it must recover with at
// worst a quarantined entry and a re-simulation, never an error.

package evalstore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// testProfile is a small, valid synthetic workload.
func testProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name:            "unit",
		LoadFrac:        0.30,
		StoreFrac:       0.10,
		BranchFrac:      0.15,
		MulFrac:         0.02,
		DivFrac:         0.01,
		WorkingSetBytes: 1 << 16,
		HotSetBytes:     1 << 12,
		HotFrac:         0.7,
		SeqFrac:         0.4,
		StrideBytes:     8,
		BranchSites:     32,
		LoopFrac:        0.5,
		LoopTrip:        8,
		TakenBias:       0.7,
		RandomEntropy:   0.2,
		DepDensity:      0.5,
		DepDistMean:     6,
		Seed:            seed,
	}
}

func testEval(score float64) evalengine.Eval {
	r := sim.Result{Workload: "unit"}
	r.Instructions = 5000
	r.Cycles = 7321
	r.LoadsL1 = 1200
	return evalengine.Eval{Result: r, Score: score}
}

func testKey(seed int64) evalengine.Key {
	tp := tech.Default()
	return evalengine.KeyOf(sim.InitialConfig(tp), testProfile(seed), 5000, tp, power.ObjIPT)
}

// TestRoundTrip: Put → Flush → Get returns the exact value, and a fresh
// Open of the same directory still serves it (process-restart survival).
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	want := testEval(1.25)
	s.Put(k, want)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed a flushed record")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := s.Stats(); st.Entries != 1 || st.Writes != 1 || st.WriteErrors != 0 {
		t.Fatalf("stats %+v, want 1 entry, 1 write, 0 errors", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process (new Store) over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok = s2.Get(k)
	if !ok {
		t.Fatal("record did not survive reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened value diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened entry count %d, want 1", st.Entries)
	}
}

// recordPath writes a flushed record for key and returns its file path.
func plantRecord(t *testing.T, s *Store, k evalengine.Key) string {
	t.Helper()
	s.Put(k, testEval(2))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s.path(k)
}

// TestTruncatedRecordQuarantined: a record cut mid-payload (the classic
// crash artifact if atomicity were ever violated) reads as a miss, is
// moved to quarantine, and never comes back.
func TestTruncatedRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(2)
	path := plantRecord(t, s, k)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("truncated record served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 quarantined, 0 entries", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt record still at %s", path)
	}
	q := filepath.Join(dir, quarantineDir, k.String())
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("corrupt record not in quarantine: %v", err)
	}
	// The miss is permanent until re-written, not an error loop.
	if _, ok := s.Get(k); ok {
		t.Fatal("quarantined record resurrected")
	}
}

// TestWrongVersionQuarantined: a record from a future (or past) format
// version is quarantined on read, so a format bump cleanly invalidates an
// old directory instead of misdecoding it.
func TestWrongVersionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(3)
	path := plantRecord(t, s, k)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Step the version digit back in place: the previous version's
	// header, derived from the record itself so the next format bump
	// keeps this test armed.
	hdr := raw[:bytes.IndexByte(raw, '\n')+1]
	hdr[len(hdr)-2]--
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("wrong-version record served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined", st)
	}
}

// TestGarbagePayloadQuarantined: a record with a valid header but an
// undecodable payload quarantines too — header checks alone are not
// trusted.
func TestGarbagePayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(4)
	path := plantRecord(t, s, k)
	if err := os.WriteFile(path, []byte(header+"not a record at all"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("garbage payload served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined", st)
	}
}

// TestLongNameIsWriteError: a workload name too long for the record's
// uint16 length is a counted write error and no file, never a record
// with a truncated name.
func TestLongNameIsWriteError(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(6)
	val := testEval(1)
	val.Result.Workload = strings.Repeat("n", maxNameBytes+1)
	s.Put(k, val)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush reported no error for an unencodable record")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 0 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 write error, 0 writes, 0 entries", st)
	}
	if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
		t.Fatalf("a record was written for the long name: %v", err)
	}
}

// TestLeftoverTempSwept: a partial temp file from a crashed writer is
// removed at Open, is not counted as an entry, and does not shadow the
// record slot — the next Put lands cleanly.
func TestLeftoverTempSwept(t *testing.T) {
	dir := t.TempDir()
	k := testKey(5)
	sub := filepath.Join(dir, k.Prefix())
	if err := os.MkdirAll(sub, 0o777); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, k.String()+".tmp-123456")
	if err := os.WriteFile(tmp, []byte("half a record"), 0o666); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover temp file survived Open")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("temp file counted as an entry: %+v", st)
	}

	want := testEval(9)
	s.Put(k, want)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Put after sweep: got %+v ok=%v, want %+v", got, ok, want)
	}
}

// TestBackpressureAndClose: more Puts than the queue holds all land (full
// queue degrades to synchronous writes), and Put after Close still
// persists.
func TestBackpressureAndClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		s.Put(testKey(int64(100+i)), testEval(float64(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != n {
		t.Fatalf("entries %d after close, want %d", st.Entries, n)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Late Put (engine detach raced with a completing evaluation): still
	// written, synchronously.
	late := testKey(999)
	s.Put(late, testEval(99))
	if _, ok := s.Get(late); !ok {
		t.Fatal("Put after Close was dropped")
	}
}

// TestEngineReadThrough: the full composition — an engine with a Store
// backend persists its misses, and a second engine over the same
// directory (fresh memory tier, new process in effect) serves the same
// request from disk without simulating, bit-identically.
func TestEngineReadThrough(t *testing.T) {
	dir := t.TempDir()
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := testProfile(7)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := evalengine.New(evalengine.Options{Backend: s})
	want, err := eng.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Misses != 1 || st.DiskMisses != 1 {
		t.Fatalf("cold stats %+v, want 1 miss / 1 disk miss", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	eng2 := evalengine.New(evalengine.Options{Backend: s2})
	got, err := eng2.Evaluate(context.Background(), cfg, p, 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk-served evaluation diverged:\n got %+v\nwant %+v", got, want)
	}
	st := eng2.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats %+v, want 1 disk hit and 0 simulations", st)
	}
	if st.Disk.Entries != 1 {
		t.Fatalf("backend stats %+v, want 1 entry", st.Disk)
	}
}

// BenchmarkEvalDiskHit measures the disk-tier read-through path: a warm
// on-disk record served into a cold memory tier (open file, one bounded
// read, header, length and checksum checks, fixed-layout decode). This is
// the latency a restarted process pays per cached evaluation instead of a
// simulation.
func BenchmarkEvalDiskHit(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	k := testKey(1)
	s.Put(k, testEval(1.5))
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); !ok {
			b.Fatal("miss on a flushed record")
		}
	}
}

// TestBytesGauge: the byte gauge tracks what is actually on disk —
// counted at write time, recounted by a fresh Open, and released when a
// record is quarantined.
func TestBytesGauge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		s.Put(testKey(i), testEval(float64(i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	onDisk := func() uint64 {
		var total uint64
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && !strings.Contains(path, quarantineDir) {
				total += uint64(info.Size())
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	want := onDisk()
	if want == 0 {
		t.Fatal("no bytes on disk after three flushed writes")
	}
	if got := s.Stats().Bytes; got != want {
		t.Fatalf("Bytes %d, want %d (actual disk usage)", got, want)
	}

	// Overwriting a record must not double count.
	s.Put(testKey(0), testEval(9))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().Bytes, onDisk(); got != want {
		t.Fatalf("Bytes %d after overwrite, want %d", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh Open recounts from the directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.Stats().Bytes, onDisk(); got != want {
		t.Fatalf("reopened Bytes %d, want %d", got, want)
	}

	// Quarantining a record releases its bytes. The corruption flips bits
	// in place (same size): the gauge tracks sizes it counted at write
	// time, so a same-size corruption is the in-contract case.
	path := s2.path(testKey(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testKey(1)); ok {
		t.Fatal("corrupt record served")
	}
	if got, want := s2.Stats().Bytes, onDisk(); got != want {
		t.Fatalf("Bytes %d after quarantine, want %d", got, want)
	}
}

// TestTwoStoresOneDirectory: two Stores — two processes, in effect —
// write one directory at once, each from four goroutines over overlapping
// keys, and the two write different values for the same key. The temp
// file, fsync and rename discipline keeps every record whole: no temp
// file is left, and a third Open reads each key as exactly one writer's
// value, quarantines nothing and counts one entry per distinct key.
func TestTwoStoresOneDirectory(t *testing.T) {
	const keys, writers, span = 24, 4, 12
	value := func(store, i int) evalengine.Eval {
		v := testEval(float64(store + 1))
		v.Result.Cycles = uint64(1000*(store+1) + i)
		v.Result.Workload = strings.Repeat("unit", store+1)
		return v
	}
	dir := t.TempDir()
	var stores [2]*Store
	for s := range stores {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[s] = st
	}
	var wg sync.WaitGroup
	for s, st := range stores {
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(s int, st *Store, g int) {
				defer wg.Done()
				// Writer g covers keys g*6 .. g*6+11: each key gets two
				// writers per store.
				for j := 0; j < span; j++ {
					i := (g*keys/writers + j) % keys
					st.Put(testKey(int64(i)), value(s, i))
				}
			}(s, st, g)
		}
	}
	wg.Wait()
	for _, st := range stores {
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Before the third Open, whose sweep would delete them.
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.Contains(info.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", path)
		}
		return err
	})

	third, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if st := third.Stats(); st.Entries != keys {
		t.Fatalf("entry gauge %d, want %d distinct keys", st.Entries, keys)
	}
	for i := 0; i < keys; i++ {
		got, ok := third.Get(testKey(int64(i)))
		if !ok {
			t.Errorf("key %d missed", i)
			continue
		}
		if !reflect.DeepEqual(got, value(0, i)) && !reflect.DeepEqual(got, value(1, i)) {
			t.Errorf("key %d holds neither writer's value: %+v", i, got)
		}
	}
	if st := third.Stats(); st.Quarantined != 0 {
		t.Fatalf("%d records quarantined, want 0", st.Quarantined)
	}
}

// TestRecordBitFlipsRejected: every single-bit flip after the header of
// a real record — a simulation with its CPI stack — is rejected: a flip
// in the name length by the byte count, anywhere else by the checksum.
func TestRecordBitFlipsRejected(t *testing.T) {
	tp := tech.Default()
	eng := evalengine.New(evalengine.Options{})
	eng.EnableIntrospection(0)
	val, err := eng.Evaluate(context.Background(), sim.InitialConfig(tp), testProfile(7), 5000, tp, power.ObjIPT)
	if err != nil {
		t.Fatal(err)
	}
	if val.Result.CPI == (pipeline.CPIStack{}) {
		t.Fatal("introspection armed, but the CPI stack is empty")
	}
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, val); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()
	accepted := 0
	for bit := 8 * len(header); bit < 8*len(rec); bit++ {
		flipped := bytes.Clone(rec)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeRecord(bytes.NewReader(flipped)); err == nil {
			accepted++
		}
	}
	if accepted != 0 {
		t.Fatalf("%d of %d single-bit flips decoded", accepted, 8*(len(rec)-len(header)))
	}
}

// TestDecodeRecordAllocs: decoding a record costs its one read buffer and
// the workload name, nothing else.
func TestDecodeRecordAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, testEval(1.5)); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()
	r := bytes.NewReader(rec)
	n := testing.AllocsPerRun(100, func() {
		r.Reset(rec)
		if _, err := DecodeRecord(r); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Fatalf("DecodeRecord: %v allocs, want at most 2", n)
	}
}

// TestGetHitAllocs bounds a disk hit's allocations: the record path, the
// open file, and the decode.
func TestGetHitAllocs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(1)
	s.Put(k, testEval(1.5))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get(k); !ok {
			t.Fatal("miss on a flushed record")
		}
	})
	if n > 12 {
		t.Fatalf("Store.Get hit: %v allocs, want at most 12", n)
	}
}
