// Crash and corruption semantics of the persistent tier: whatever is in
// the pack — torn entries, stale format versions, garbage between
// entries, bit rot after Open — opening the store and reading through it
// must recover with at worst a quarantined entry and a re-simulation,
// never an error.

package evalstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
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

// packPath is the pack file of the store rooted at dir.
func packPath(dir string) string { return filepath.Join(dir, packName) }

// readPack returns the pack's bytes.
func readPack(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(packPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writePack replaces the pack's contents in place.
func writePack(t *testing.T, dir string, b []byte) {
	t.Helper()
	if err := os.WriteFile(packPath(dir), b, 0o666); err != nil {
		t.Fatal(err)
	}
}

// openStore opens the store rooted at dir and closes it when the test
// ends.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// record returns val's encoded record.
func record(t testing.TB, val evalengine.Eval) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, val); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame builds a pack entry by hand: the key, the record, and a CRC-32C
// of both.
func frame(k evalengine.Key, rec []byte) []byte {
	b := append(bytes.Clone(k[:]), rec...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// previousVersion returns rec with its header's version digit stepped
// back: the previous format's header, derived from the record itself so
// the next format bump keeps the tests that use it armed.
func previousVersion(rec []byte) []byte {
	rec = bytes.Clone(rec)
	rec[bytes.IndexByte(rec, '\n')-1]--
	return rec
}

// plantRecord writes and flushes a record for key.
func plantRecord(t *testing.T, s *Store, k evalengine.Key) {
	t.Helper()
	s.Put(k, testEval(2))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedRecordQuarantined: an entry cut mid-record — the torn tail
// a crash before Flush can leave — reads as a miss through the store that
// indexed it, is counted as quarantined both there and by a fresh Open,
// and never comes back.
func TestTruncatedRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	k := testKey(2)
	plantRecord(t, s, k)
	raw := readPack(t, dir)
	writePack(t, dir, raw[:len(raw)/2])

	if _, ok := s.Get(k); ok {
		t.Fatal("truncated record served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 quarantined, 0 entries", st)
	}
	// The miss is permanent until re-written, not an error loop.
	if _, ok := s.Get(k); ok {
		t.Fatal("quarantined record resurrected")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v after a second Get, want the record counted once", st)
	}

	s2 := openStore(t, dir)
	if _, ok := s2.Get(k); ok {
		t.Fatal("torn tail served after reopen")
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("reopened stats %+v, want 1 quarantined, 0 entries", st)
	}
}

// TestWrongVersionQuarantined: an entry whose record carries another
// format version is skipped and counted at Open, even under a valid entry
// checksum, so a record of one version is never misdecoded as another.
func TestWrongVersionQuarantined(t *testing.T) {
	dir := t.TempDir()
	k := testKey(3)
	writePack(t, dir, frame(k, previousVersion(record(t, testEval(2)))))
	s := openStore(t, dir)
	if _, ok := s.Get(k); ok {
		t.Fatal("wrong-version record served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want 1 quarantined, 0 entries", st)
	}
}

// TestGarbagePayloadQuarantined: garbage between two entries — a valid
// record header and then no record — is skipped and counted, header
// checks alone are not trusted, and both neighbours are still served.
func TestGarbagePayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	a, b := testKey(4), testKey(40)
	va, vb := testEval(4), testEval(40)
	var pack []byte
	pack = append(pack, frame(a, record(t, va))...)
	pack = append(pack, header+"not a record at all"...)
	pack = append(pack, frame(b, record(t, vb))...)
	writePack(t, dir, pack)
	s := openStore(t, dir)
	for _, c := range []struct {
		k    evalengine.Key
		want evalengine.Eval
	}{{a, va}, {b, vb}} {
		if got, ok := s.Get(c.k); !ok || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("neighbour of the garbage: got %+v ok=%v, want %+v", got, ok, c.want)
		}
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 quarantined, 2 entries", st)
	}
}

// TestLongNameIsWriteError: a workload name too long for the record's
// uint16 length is a counted write error that leaves the pack as it was,
// never a record with a truncated name; the longest name that fits is
// stored whole.
func TestLongNameIsWriteError(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	plantRecord(t, s, testKey(6))
	before := len(readPack(t, dir))
	val := testEval(1)
	val.Result.Workload = strings.Repeat("n", maxNameBytes+1)
	s.Put(testKey(7), val)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush reported no error for an unencodable record")
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 write error, 1 write, 1 entry", st)
	}
	if after := len(readPack(t, dir)); after != before {
		t.Fatalf("pack grew from %d to %d bytes for the long name", before, after)
	}

	// The longest name that fits makes the longest entry Open must read.
	longest := testEval(1)
	longest.Result.Workload = strings.Repeat("n", maxNameBytes)
	s.Put(testKey(8), longest)
	s.Flush() // still reports the long name's error
	if got, ok := openStore(t, dir).Get(testKey(8)); !ok || !reflect.DeepEqual(got, longest) {
		t.Fatalf("longest name after reopen: ok=%v, equal=%v", ok, reflect.DeepEqual(got, longest))
	}
}

// TestLeftoverTempSwept: what a writer that crashed mid-entry leaves —
// half an entry — followed by another store's appends. A fresh Open
// counts the torn entry and serves both whole entries after it, and the
// torn key's next Put lands cleanly.
func TestLeftoverTempSwept(t *testing.T) {
	dir := t.TempDir()
	k1, k2 := testKey(5), testKey(50)
	torn := frame(k1, record(t, testEval(5)))
	writePack(t, dir, torn[:len(torn)/2])

	s := openStore(t, dir)
	if st := s.Stats(); st.Entries != 0 || st.Quarantined != 1 {
		t.Fatalf("torn tail at Open: stats %+v, want 0 entries, 1 quarantined", st)
	}
	v1, v2 := testEval(9), testEval(10)
	s.Put(k2, v2)
	s.Put(k1, v1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	for _, c := range []struct {
		k    evalengine.Key
		want evalengine.Eval
	}{{k1, v1}, {k2, v2}} {
		if got, ok := s2.Get(c.k); !ok || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("appended after a torn entry: got %+v ok=%v, want %+v", got, ok, c.want)
		}
	}
	if st := s2.Stats(); st.Entries != 2 || st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 2 entries, 1 quarantined", st)
	}
}

// TestOldLayoutIgnored: a directory written by a build that kept one
// file per record — <hh>/<64-hex-key> plus quarantine/ — opens as an
// empty store: those files are neither read, counted nor deleted, so the
// directory re-simulates once.
func TestOldLayoutIgnored(t *testing.T) {
	dir := t.TempDir()
	k := testKey(11)
	old := []string{
		filepath.Join(dir, k.String()[:2], k.String()),
		filepath.Join(dir, "quarantine", k.String()),
	}
	for _, p := range old {
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, record(t, testEval(11)), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	s := openStore(t, dir)
	if _, ok := s.Get(k); ok {
		t.Fatal("a record file of the old layout was served")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Quarantined != 0 {
		t.Fatalf("stats %+v, want an empty store", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range old {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("old-layout file %s: %v", p, err)
		}
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
// record served into a cold memory tier (an index lookup, one positioned
// read of the record, header, length and checksum checks, fixed-layout
// decode). This is the latency a restarted process pays per cached
// evaluation instead of a simulation.
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

// TestBytesGauge: the byte gauge equals the pack's size at every step —
// counted at write time, where an overwrite appends a whole new entry,
// recounted by a fresh Open, and left alone when a record fails its
// checks, since its bytes stay in the pack.
func TestBytesGauge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := func() uint64 {
		info, err := os.Stat(packPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return uint64(info.Size())
	}
	check := func(step string, s *Store) {
		t.Helper()
		if got, want := s.Stats().Bytes, onDisk(); got != want {
			t.Fatalf("%s: Bytes %d, want the pack's %d", step, got, want)
		}
	}
	check("fresh store", s)
	for i := int64(0); i < 3; i++ {
		s.Put(testKey(i), testEval(float64(i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if onDisk() == 0 {
		t.Fatal("no bytes on disk after three flushed writes")
	}
	check("three writes", s)

	// An overwrite appends one more entry; the entry count stays.
	before := onDisk()
	s.Put(testKey(0), testEval(9))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("overwrite", s)
	if grew, want := onDisk()-before, uint64(len(frame(testKey(0), record(t, testEval(9))))); grew != want {
		t.Fatalf("overwrite grew the pack by %d bytes, want one %d-byte entry", grew, want)
	}
	if st := s.Stats(); st.Entries != 3 {
		t.Fatalf("entries %d after an overwrite, want 3", st.Entries)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	check("reopen", s2)

	// Rot one record in place after Open: it reads as a miss, and its
	// bytes stay counted because they stay on disk.
	sp := s2.index[testKey(1)]
	f, err := os.OpenFile(packPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	rotten := make([]byte, sp.n)
	if _, err := f.ReadAt(rotten, sp.off); err != nil {
		t.Fatal(err)
	}
	for i := range rotten {
		rotten[i] ^= 0xff
	}
	_, err = f.WriteAt(rotten, sp.off)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testKey(1)); ok {
		t.Fatal("corrupt record served")
	}
	check("corrupt record", s2)
	if st := s2.Stats(); st.Quarantined != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v after a corrupt read, want 1 quarantined, 2 entries", st)
	}
}

// TestTwoStoresOneDirectory: two Stores — two processes, in effect —
// write one directory at once, each from four goroutines over overlapping
// keys, and the two write different values for the same key. Each entry
// goes out in one write on an O_APPEND descriptor, so no two interleave:
// the directory holds only the pack, and a third Open reads each key as
// exactly one writer's value, quarantines nothing and counts one entry
// per distinct key.
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
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != packName {
		t.Errorf("directory holds %v, want only %s", des, packName)
	}

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

// TestThreeStoresOneDirectory: while one store appends from several
// goroutines, a second, opened before the stream, serves Gets, and a
// third opens mid-stream. Every value any of them serves is one a writer
// wrote, whole. A key appended after the second store's Open is a clean
// miss there — no hit, nothing quarantined — and is served once the
// directory is reopened. The mid-stream Open indexes only whole entries:
// at most the one entry in flight can be torn, and it is counted, never
// served.
func TestThreeStoresOneDirectory(t *testing.T) {
	const early, late, writers = 8, 48, 4
	// Each late key is written twice, by two goroutines, as two versions
	// of different lengths.
	value := func(i, version int) evalengine.Eval {
		v := testEval(float64(i))
		v.Result.Cycles = uint64(1000*version + i)
		v.Result.Workload = strings.Repeat("unit", version+1)
		return v
	}
	whole := func(i int, got evalengine.Eval) bool {
		return reflect.DeepEqual(got, value(i, 0)) || (i >= early && reflect.DeepEqual(got, value(i, 1)))
	}
	dir := t.TempDir()
	w, err := OpenOptions(dir, Options{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < early; i++ {
		w.Put(testKey(int64(i)), value(i, 0))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir)

	var writing sync.WaitGroup
	halfway := make(chan struct{})
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(g int) {
			defer writing.Done()
			for j := 0; j < late/writers*2; j++ {
				if g == 0 && j == late/writers {
					close(halfway)
				}
				// Goroutine g writes version 0 of its own quarter of the
				// late keys and version 1 of the next quarter.
				i := early + (g*late/writers+j)%late
				w.Put(testKey(int64(i)), value(i, j/(late/writers)))
			}
		}(g)
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	for _, s := range []*Store{r, w} {
		reading.Add(1)
		go func(s *Store) {
			defer reading.Done()
			for {
				for i := 0; i < early+late; i++ {
					got, ok := s.Get(testKey(int64(i)))
					switch {
					case ok && !whole(i, got):
						t.Errorf("key %d served a value no writer wrote: %+v", i, got)
					case s == r && ok != (i < early):
						t.Errorf("reader opened before key %d was written: hit=%v", i, ok)
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(s)
	}
	<-halfway
	mid := openStore(t, dir)
	writing.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	reading.Wait()

	if st := r.Stats(); st.Entries != early || st.Quarantined != 0 {
		t.Fatalf("reader stats %+v, want %d entries, 0 quarantined", st, early)
	}
	st := mid.Stats()
	if st.Quarantined > 1 || st.Entries > early+late {
		t.Fatalf("mid-stream Open stats %+v, want at most 1 torn tail and %d entries", st, early+late)
	}
	for i := 0; i < early+late; i++ {
		if got, ok := mid.Get(testKey(int64(i))); ok && !whole(i, got) {
			t.Errorf("mid-stream Open served key %d as %+v", i, got)
		} else if !ok && i < early {
			t.Errorf("mid-stream Open missed key %d, written before the stream", i)
		}
	}

	again := openStore(t, dir)
	if st := again.Stats(); st.Entries != early+late || st.Quarantined != 0 {
		t.Fatalf("reopened stats %+v, want %d entries, 0 quarantined", st, early+late)
	}
	for i := 0; i < early+late; i++ {
		if got, ok := again.Get(testKey(int64(i))); !ok || !whole(i, got) {
			t.Errorf("reopened key %d: got %+v ok=%v", i, got, ok)
		}
	}
}

// TestCheckPackNoticesLostPack: CheckPack passes while the open pack is
// the file at its path and fails once that file is removed or replaced —
// the store would otherwise keep appending to a file no Open reads.
func TestCheckPackNoticesLostPack(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	plantRecord(t, s, testKey(8))
	if err := s.CheckPack(); err != nil {
		t.Fatalf("CheckPack on an intact pack: %v", err)
	}
	if err := os.Remove(packPath(dir)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckPack(); err == nil {
		t.Fatal("CheckPack passed with the pack removed")
	}
	writePack(t, dir, nil)
	if err := s.CheckPack(); err == nil {
		t.Fatal("CheckPack passed with the pack replaced")
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

// TestGetHitAllocs bounds a disk hit's allocations: the record's read
// buffer and the workload name.
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
	if n > 2 {
		t.Fatalf("Store.Get hit: %v allocs, want at most 2", n)
	}
}
