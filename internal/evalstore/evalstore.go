// Package evalstore is the persistent tier of the evaluation cache: a
// content-addressed on-disk store of memoized evaluations, keyed by the
// engine's SHA-256 request Key and composed behind the in-memory LRU as
// evalengine.CacheBackend. It is what makes a design-space exploration's
// most expensive asset — the (config, workload) → outcome corpus — survive
// process restarts and get shared across sessions, tools and server
// tenants: a rerun of yesterday's Table 5 build starts with every
// evaluation already on disk.
//
// Layout and discipline:
//
//   - Every evaluation lives in one append-only pack file per directory,
//     <dir>/xpeval-record-v2.pack. An entry is the 32-byte key, the record,
//     and a CRC-32C of both. The pack is named after the record version, so
//     a format bump starts a new pack and never reads the old one.
//   - Every record is the fixed binary layout xpeval-record-v2 (see
//     EncodeRecord): a versioned header, every leaf of the evaluation at a
//     fixed width, the workload name behind its length, and a CRC-32C.
//   - Open reads the pack once, sequentially through a fixed buffer, and
//     keeps an index from each key to its record's offset and length. A
//     disk hit is a map lookup, one positioned read and the record's checks.
//   - Every store on a directory appends whole entries, each in one write
//     on an O_APPEND descriptor, so stores in different processes never
//     interleave their entries.
//   - A torn or corrupt entry is skipped at Open by resynchronising on the
//     next record header, and a record that fails its checks on a later
//     read leaves the index. Either is counted as quarantined and reported
//     as a miss, never as an error: corruption costs one re-simulation, not
//     a failed run.
//   - Writes are write-behind: Put enqueues and returns; a single writer
//     goroutine drains the queue. Flush (and Close) block until everything
//     accepted so far is appended, then fsync the pack if this store wrote
//     to it. A crash before that may lose or tear entries, and the entry
//     checksum keeps a torn one from ever being served. A full queue applies
//     backpressure by writing synchronously in the caller rather than
//     dropping.
package evalstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/pipeline"
)

// recordVersion names the record format. Bump it when the layout changes
// shape: records under the old version then fail the header check, and a
// directory's old pack is left unread.
const recordVersion = "xpeval-record-v2"

// header opens every record.
const header = recordVersion + "\n"

// packName is the file, inside the store's directory, that holds every
// entry.
const packName = recordVersion + ".pack"

// The layout after the header: fixedBytes of fixed-width leaves, the
// workload name as a uint16 length and its bytes, then a CRC-32C of
// everything after the header. All integers are little-endian.
const (
	// resultCounters is the number of pipeline.Result counters.
	resultCounters = 13
	// fixedBytes covers the configuration (evalengine.AppendConfig), the
	// pipeline.Result counters, the CPI stack and the score.
	fixedBytes = evalengine.ConfigBytes + 8*resultCounters + 8*pipeline.NumBuckets + 8
	// maxNameBytes is the longest workload name a record holds.
	maxNameBytes = math.MaxUint16
	// maxRecordBytes is the longest legal record; DecodeRecord reads at
	// most one byte more.
	maxRecordBytes = len(header) + fixedBytes + 2 + maxNameBytes + 4
	// readBufBytes sizes DecodeRecord's buffer so a record whose name is
	// up to 64 bytes, and the read that finds its end, fit without
	// growing it.
	readBufBytes = len(header) + fixedBytes + 2 + 64 + 4 + 1
)

// A pack entry is the key, the record, and a CRC-32C of both.
const (
	keyBytes = sha256.Size // the length of an evalengine.Key
	// entryOverhead is what an entry adds to its record.
	entryOverhead = keyBytes + 4
	// entryPrefix is the part of an entry that fixes its length: the key
	// and the record up to its name length.
	entryPrefix = keyBytes + len(header) + fixedBytes + 2
	// scanBufBytes is the buffer Open reads the pack through; the longest
	// legal entry fits in it.
	scanBufBytes = 1 << 17
)

// castagnoli is the CRC-32C table every record's and entry's checksum
// uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// defaultQueueDepth bounds the write-behind queue.
const defaultQueueDepth = 256

// Options tunes a Store. The zero value selects defaults.
type Options struct {
	// QueueDepth bounds the write-behind queue (default 256). A full
	// queue never drops: Put degrades to a synchronous write instead.
	QueueDepth int
}

// writeReq is one unit of work for the writer goroutine: either a record
// to persist or a flush barrier to acknowledge.
type writeReq struct {
	key     evalengine.Key
	val     evalengine.Eval
	barrier chan struct{} // non-nil: flush marker, close when reached
}

// span locates one record in the pack.
type span struct {
	off int64
	n   int
}

// Store is a content-addressed persistent evaluation cache rooted at one
// directory. Safe for concurrent use. It implements
// evalengine.CacheBackend.
type Store struct {
	path  string // the pack
	queue chan writeReq
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	err    error // sticky first write error, surfaced by Flush/Close

	// wmu serialises appends, so the descriptor's offset after a write
	// is that write's end.
	wmu   sync.Mutex
	dirty bool // appended since the last fsync

	// imu guards the index and the descriptor, which Close releases.
	imu   sync.RWMutex
	f     *os.File
	index map[evalengine.Key]span

	size        atomic.Int64 // the pack's size at Open plus this store's appends
	writes      atomic.Uint64
	writeErrs   atomic.Uint64
	quarantined atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir with default
// options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens the store with explicit options. It creates the pack
// if it is missing and indexes every whole entry in it before the store
// accepts traffic. It fails only on I/O errors, never because of what the
// pack holds.
func OpenOptions(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("evalstore: empty directory")
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = defaultQueueDepth
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	path := filepath.Join(dir, packName)
	f, err := openPack(path)
	if err != nil {
		return nil, err
	}
	s := &Store{
		path:  path,
		queue: make(chan writeReq, o.QueueDepth),
		f:     f,
		index: make(map[evalengine.Key]span),
	}
	if err := s.load(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("evalstore: read %s: %w", path, err)
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// openPack opens the pack for positioned reads and appends, creating it
// if needed.
func openPack(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	return f, nil
}

// load reads the pack from r front to back and indexes every entry that
// passes its checksum and the record's checks; of two entries with one
// key, the later wins. Anything else is counted as quarantined and
// skipped by resynchronising on the next record header, so it costs that
// entry only.
func (s *Store) load(r io.Reader) error {
	br := bufio.NewReaderSize(r, scanBufBytes)
	var pos int64 // the pack offset of br's next byte
	for {
		e, err := br.Peek(entryPrefix)
		if n := entryLen(e); n > 0 {
			if e, err = br.Peek(n); len(e) == n {
				if k, ok := checkEntry(e); ok {
					s.index[k] = span{off: pos + keyBytes, n: n - entryOverhead}
					br.Discard(n) // peeked, so it cannot fail
					pos += int64(n)
					continue
				}
			}
		}
		if err != nil && err != io.EOF {
			return err
		}
		if len(e) == 0 {
			break
		}
		s.quarantined.Add(1)
		skipped, found, err := resync(br)
		pos += skipped
		if err != nil {
			return err
		}
		if !found {
			break
		}
	}
	s.size.Store(pos)
	return nil
}

// entryLen returns the length of the entry that prefix opens, read from
// its record's name length, or 0 if prefix is short or its record header
// is wrong.
func entryLen(prefix []byte) int {
	if len(prefix) < entryPrefix || string(prefix[keyBytes:keyBytes+len(header)]) != header {
		return 0
	}
	nameLen := int(binary.LittleEndian.Uint16(prefix[entryPrefix-2:]))
	return entryPrefix + nameLen + 4 + 4
}

// checkEntry reports whether the entry e passes its checksum and its
// record's checks, and returns its key.
func checkEntry(e []byte) (evalengine.Key, bool) {
	var k evalengine.Key
	n := len(e)
	if crc32.Checksum(e[:n-4], castagnoli) != binary.LittleEndian.Uint32(e[n-4:]) {
		return k, false
	}
	if _, err := parseRecord(e[keyBytes : n-4]); err != nil {
		return k, false
	}
	copy(k[:], e)
	return k, true
}

// resync discards the bad entry br starts with, up to the next entry: the
// key before the first record header past this entry's own. It returns
// the bytes it discarded and whether it found such an entry before the
// end of the pack, where it has discarded everything.
func resync(br *bufio.Reader) (skipped int64, found bool, err error) {
	br.Discard(1) // the entry was peeked, so it cannot fail
	skipped = 1
	for {
		b, err := br.Peek(scanBufBytes)
		if i := bytes.Index(b[min(keyBytes, len(b)):], []byte(header)); i >= 0 {
			br.Discard(i)
			return skipped + int64(i), true, nil
		}
		if err == io.EOF {
			return skipped + int64(len(b)), false, nil
		}
		if err != nil {
			return skipped, false, err
		}
		// Keep what could still open an entry whose header straddles the
		// end of b.
		d := len(b) - keyBytes - len(header) + 1
		br.Discard(d)
		skipped += int64(d)
	}
}

// Get implements evalengine.CacheBackend: it returns the stored
// evaluation, or a miss. A record that no longer passes its checks leaves
// the index and is counted as quarantined.
func (s *Store) Get(k evalengine.Key) (evalengine.Eval, bool) {
	s.imu.RLock()
	sp, ok := s.index[k]
	if !ok {
		s.imu.RUnlock()
		return evalengine.Eval{}, false
	}
	b := make([]byte, sp.n)
	err := s.readAt(b, sp.off)
	s.imu.RUnlock()
	var val evalengine.Eval
	if err == nil {
		val, err = parseRecord(b)
	}
	if err != nil {
		s.drop(k, sp)
		return evalengine.Eval{}, false
	}
	return val, true
}

// readAt fills b from the pack at off: through the open descriptor, or
// after Close through one opened for the call. Called with imu held.
func (s *Store) readAt(b []byte, off int64) error {
	f := s.f
	if f == nil {
		var err error
		if f, err = os.Open(s.path); err != nil {
			return err
		}
		defer f.Close()
	}
	_, err := f.ReadAt(b, off)
	return err
}

// drop removes a record that failed its checks from the index, unless a
// newer entry for its key replaced it meanwhile.
func (s *Store) drop(k evalengine.Key, sp span) {
	s.imu.Lock()
	defer s.imu.Unlock()
	if cur, ok := s.index[k]; ok && cur == sp {
		delete(s.index, k)
		s.quarantined.Add(1)
	}
}

// DecodeRecord reads one record from r and decodes it. It is the single
// reader of the record format: the disk tier parses the records in its
// pack with it, the remote tier (internal/evalremote) HTTP bodies, so the
// two tiers stay byte-compatible by construction and a version bump
// orphans both at once. It reads r to EOF into one buffer, at most one
// byte past the longest legal record, and fails on a wrong header, a byte
// count that disagrees with the name length, a checksum mismatch, or an
// int that does not fit int.
func DecodeRecord(r io.Reader) (evalengine.Eval, error) {
	b, err := readRecord(r)
	if err != nil {
		return evalengine.Eval{}, err
	}
	return parseRecord(b)
}

// readRecord reads r to EOF, failing once it holds more than the longest
// legal record.
func readRecord(r io.Reader) ([]byte, error) {
	b := make([]byte, 0, readBufBytes)
	for {
		if len(b) > maxRecordBytes {
			return nil, fmt.Errorf("evalstore: record longer than %d bytes", maxRecordBytes)
		}
		if len(b) == cap(b) {
			b = slices.Grow(b, len(b))
		}
		n, err := r.Read(b[len(b):min(cap(b), maxRecordBytes+1)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, fmt.Errorf("evalstore: read: %w", err)
		}
	}
}

// parseRecord decodes one whole record.
func parseRecord(b []byte) (evalengine.Eval, error) {
	if len(b) < len(header) || string(b[:len(header)]) != header {
		return evalengine.Eval{}, fmt.Errorf("evalstore: header %q, want %q", b[:min(len(b), len(header))], header)
	}
	body := b[len(header):]
	if len(body) < fixedBytes+2+4 {
		return evalengine.Eval{}, fmt.Errorf("evalstore: %d-byte record body, shorter than its fixed part", len(body))
	}
	nameLen := int(binary.LittleEndian.Uint16(body[fixedBytes:]))
	if want := fixedBytes + 2 + nameLen + 4; len(body) != want {
		return evalengine.Eval{}, fmt.Errorf("evalstore: %d-byte record body, want %d for a %d-byte name", len(body), want, nameLen)
	}
	payload := body[:len(body)-4]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(body[len(payload):]) {
		return evalengine.Eval{}, fmt.Errorf("evalstore: record checksum mismatch")
	}
	var val evalengine.Eval
	cfg, rest, err := evalengine.ReadConfig(payload)
	if err != nil {
		return evalengine.Eval{}, fmt.Errorf("evalstore: %w", err)
	}
	val.Result.Config = cfg
	for _, p := range counters(&val.Result.Result) {
		*p, rest = binary.LittleEndian.Uint64(rest), rest[8:]
	}
	for i := range val.Result.CPI {
		val.Result.CPI[i], rest = binary.LittleEndian.Uint64(rest), rest[8:]
	}
	val.Score = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	val.Result.Workload = string(rest[8+2:])
	return val, nil
}

// EncodeRecord writes val's record to w in one Write: the inverse of
// DecodeRecord and the exact bytes of a pack entry's record. A workload
// name longer than 65,535 bytes is an error; nothing is truncated.
func EncodeRecord(w io.Writer, val evalengine.Eval) error {
	b, err := appendRecord(nil, val)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// recordLen is the length of a record whose workload name has n bytes.
func recordLen(n int) int { return len(header) + fixedBytes + 2 + n + 4 }

// appendRecord appends val's record to b, growing it at most once. The
// leaves follow evalengine.Eval's declaration order, except that the
// variable-length workload name moves to the end.
func appendRecord(b []byte, val evalengine.Eval) ([]byte, error) {
	name := val.Result.Workload
	if len(name) > maxNameBytes {
		return nil, fmt.Errorf("evalstore: workload name of %d bytes exceeds %d", len(name), maxNameBytes)
	}
	b = slices.Grow(b, recordLen(len(name)))
	start := len(b)
	b = append(b, header...)
	b = evalengine.AppendConfig(b, val.Result.Config)
	for _, p := range counters(&val.Result.Result) {
		b = binary.LittleEndian.AppendUint64(b, *p)
	}
	for _, v := range val.Result.CPI {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(val.Score))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start+len(header):], castagnoli)), nil
}

// encodeEntry builds k's pack entry for val in one buffer of its exact
// size: the key, the record, and a CRC-32C of both.
func encodeEntry(k evalengine.Key, val evalengine.Eval) ([]byte, error) {
	b := make([]byte, 0, recordLen(len(val.Result.Workload))+entryOverhead)
	b, err := appendRecord(append(b, k[:]...), val)
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// counters lists r's counters in layout order (declaration order, nested
// stats included): the one place the order is written down.
func counters(r *pipeline.Result) [resultCounters]*uint64 {
	return [...]*uint64{
		&r.Instructions, &r.Cycles,
		&r.Branch.Lookups, &r.Branch.Mispredicts,
		&r.L1.Accesses, &r.L1.Misses, &r.L1.Writebacks,
		&r.L2.Accesses, &r.L2.Misses, &r.L2.Writebacks,
		&r.LoadsL1, &r.LoadsL2, &r.LoadsMem,
	}
}

// GetBatch implements evalengine.BatchGetter with one sequential pass
// over the requested keys — the disk tier's multi-get is a read loop, but
// exposing it batched keeps the engine's group read-through a single
// call into every tier shape.
func (s *Store) GetBatch(keys []evalengine.Key) map[evalengine.Key]evalengine.Eval {
	found := make(map[evalengine.Key]evalengine.Eval)
	for _, k := range keys {
		if v, ok := s.Get(k); ok {
			found[k] = v
		}
	}
	return found
}

// Put implements evalengine.CacheBackend: it enqueues the record for the
// write-behind goroutine, degrading to a synchronous write when the queue
// is full (backpressure, never loss) or the store is closed.
func (s *Store) Put(k evalengine.Key, val evalengine.Eval) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.writeNow(k, val)
		return
	}
	select {
	case s.queue <- writeReq{key: k, val: val}:
	default:
		s.writeNow(k, val)
	}
}

// writer drains the write-behind queue until Close closes it.
func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.queue {
		if req.barrier != nil {
			close(req.barrier)
			continue
		}
		s.writeNow(req.key, req.val)
	}
}

// writeNow appends one entry to the pack and indexes it where it landed.
// Write failures are counted and held as the sticky error; the evaluation
// itself already succeeded and is served from memory, so nothing upstream
// fails.
func (s *Store) writeNow(k evalengine.Key, val evalengine.Eval) {
	e, err := encodeEntry(k, val)
	if err != nil {
		s.noteWriteErr(err)
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	off, err := s.append(e)
	if err != nil {
		s.noteWriteErr(err)
		return
	}
	s.writes.Add(1)
	s.size.Add(int64(len(e)))
	s.imu.Lock()
	s.index[k] = span{off: off + keyBytes, n: len(e) - entryOverhead}
	s.imu.Unlock()
}

// append writes e to the pack in one write and returns the offset where
// it landed. After Close it opens the pack for the one write and fsyncs
// it before closing, since no Flush will follow. Called with wmu held.
func (s *Store) append(e []byte) (int64, error) {
	f := s.f
	if f == nil {
		var err error
		if f, err = openPack(s.path); err != nil {
			return 0, err
		}
		defer f.Close()
	}
	if _, err := f.Write(e); err != nil {
		return 0, err
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	if f != s.f {
		err = f.Sync()
	} else {
		s.dirty = true
	}
	return end - int64(len(e)), err
}

func (s *Store) noteWriteErr(err error) {
	s.writeErrs.Add(1)
	s.noteErr(err)
}

// noteErr holds err as the sticky error unless one is held already.
func (s *Store) noteErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// sync fsyncs the pack if this store appended to it since the last sync.
// Called with wmu held.
func (s *Store) sync() {
	if !s.dirty {
		return
	}
	s.dirty = false
	if err := s.f.Sync(); err != nil {
		s.noteErr(err)
	}
}

// Flush implements evalengine.CacheBackend: it blocks until every Put
// accepted before the call is appended and fsynced, and returns the
// sticky write error if any write has failed so far. A store that wrote
// nothing pays no fsync.
func (s *Store) Flush() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		// A barrier rides the FIFO queue behind every prior record.
		b := make(chan struct{})
		s.queue <- writeReq{barrier: b}
		<-b
	}
	s.wmu.Lock()
	s.sync()
	s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close implements evalengine.CacheBackend: it flushes the queue, stops
// the writer, fsyncs the pack, releases its descriptor and returns the
// sticky error. Puts and Gets arriving after Close open the pack for
// themselves, so nothing is lost either way. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	s.wmu.Lock()
	s.sync()
	s.imu.Lock()
	f := s.f
	s.f = nil
	s.imu.Unlock()
	if err := f.Close(); err != nil {
		s.noteErr(err)
	}
	s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// CheckPack reports an error when the store's open pack is no longer the
// file at its path: deleted, or replaced. Appends would then go to a file
// no later Open reads, so a server's readiness probe fails on it.
func (s *Store) CheckPack() error {
	fi, err := os.Stat(s.path)
	if err != nil {
		return err
	}
	s.imu.RLock()
	defer s.imu.RUnlock()
	if s.f == nil {
		return nil
	}
	di, err := s.f.Stat()
	if err != nil {
		return err
	}
	if !os.SameFile(fi, di) {
		return fmt.Errorf("evalstore: %s is no longer the pack this store opened", s.path)
	}
	return nil
}

// Stats implements evalengine.CacheBackend.
func (s *Store) Stats() evalengine.BackendStats {
	s.imu.RLock()
	n := len(s.index)
	s.imu.RUnlock()
	return evalengine.BackendStats{
		Entries:     uint64(n),
		Bytes:       uint64(s.size.Load()),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrs.Load(),
		Quarantined: s.quarantined.Load(),
	}
}
