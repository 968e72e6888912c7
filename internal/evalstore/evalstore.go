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
//   - One record per evaluation at <dir>/<hh>/<64-hex-key>, where <hh> is
//     the key's first two hex digits (256-way fanout, so no directory
//     grows pathological).
//   - Every record is written with internal/store's atomic discipline
//     (temp file in the same directory, fsync, rename), so a crash mid
//     write can never expose a truncated record under a valid name.
//   - Every record is the fixed binary layout xpeval-record-v2 (see
//     EncodeRecord): a versioned header, every leaf of the evaluation at a
//     fixed width, the workload name behind its length, and a CRC-32C.
//     A disk hit is one bounded read and a checksum. Bumping the format
//     version orphans old records cleanly instead of misreading them.
//   - A record that fails to read — truncated, wrong version, a length or
//     checksum that does not match — is moved to <dir>/quarantine/ and
//     reported as a miss, never as an error: corruption costs one
//     re-simulation, not a failed run.
//   - Writes are write-behind: Put enqueues and returns; a single writer
//     goroutine drains the queue. Flush (and Close) block until everything
//     accepted so far is durable. A full queue applies backpressure by
//     writing synchronously in the caller rather than dropping.
package evalstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/pipeline"
	"xpscalar/internal/store"
)

// header opens every record. The trailing version is the on-disk format
// version: bump it when the layout changes shape and every record written
// under the old format quarantines on first read instead of decoding
// wrong.
const header = "xpeval-record-v2\n"

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

// castagnoli is the CRC-32C table every record's checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// quarantineDir collects records that failed to read.
const quarantineDir = "quarantine"

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

// Store is a content-addressed persistent evaluation cache rooted at one
// directory. Safe for concurrent use. It implements
// evalengine.CacheBackend.
type Store struct {
	dir   string
	queue chan writeReq
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	err    error // sticky first write error, surfaced by Flush/Close

	entries     atomic.Int64
	bytes       atomic.Int64
	writes      atomic.Uint64
	writeErrs   atomic.Uint64
	quarantined atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir with default
// options.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens the store with explicit options. Leftover temporary
// files from a crashed writer are swept, and the current record count is
// taken, before the store accepts traffic.
func OpenOptions(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("evalstore: empty directory")
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = defaultQueueDepth
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o777); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	s := &Store{dir: dir, queue: make(chan writeReq, o.QueueDepth)}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// sweep removes temp files a crash left behind and counts the records —
// and bytes — present, so both occupancy gauges are truthful from the
// first scrape. A half-written temp file is an artifact of the
// atomic-write discipline — it was never visible under a record name — so
// deleting it is recovery, not data loss.
func (s *Store) sweep() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("evalstore: %w", err)
	}
	var n, bytes int64
	for _, de := range des {
		if !de.IsDir() || de.Name() == quarantineDir {
			continue
		}
		sub := filepath.Join(s.dir, de.Name())
		files, err := os.ReadDir(sub)
		if err != nil {
			return fmt.Errorf("evalstore: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			if strings.Contains(f.Name(), ".tmp-") {
				os.Remove(filepath.Join(sub, f.Name()))
				continue
			}
			n++
			if info, err := f.Info(); err == nil {
				bytes += info.Size()
			}
		}
	}
	s.entries.Store(n)
	s.bytes.Store(bytes)
	return nil
}

// path returns the record file for a key: <dir>/<hh>/<64-hex>.
func (s *Store) path(k evalengine.Key) string {
	return filepath.Join(s.dir, k.Prefix(), k.String())
}

// Get implements evalengine.CacheBackend: it returns the stored
// evaluation, or a miss. Any read failure — absent file aside — moves the
// record to quarantine and reports a miss.
func (s *Store) Get(k evalengine.Key) (evalengine.Eval, bool) {
	path := s.path(k)
	f, err := os.Open(path)
	if err != nil {
		s.misses.Add(1)
		return evalengine.Eval{}, false
	}
	val, err := DecodeRecord(f)
	f.Close()
	if err != nil {
		s.quarantine(path, err)
		s.misses.Add(1)
		return evalengine.Eval{}, false
	}
	s.hits.Add(1)
	return val, true
}

// DecodeRecord reads one record from r and decodes it. It is the single
// reader of the record format: the disk tier uses it on files, the remote
// tier (internal/evalremote) on HTTP bodies, so the two tiers stay
// byte-compatible by construction and a version bump orphans both at
// once. It reads r to EOF into one buffer, at most one byte past the
// longest legal record, and fails on a wrong header, a byte count that
// disagrees with the name length, a checksum mismatch, or an int that does
// not fit int.
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
// DecodeRecord and the store's exact on-disk encoding. A workload name
// longer than 65,535 bytes is an error; nothing is truncated.
func EncodeRecord(w io.Writer, val evalengine.Eval) error {
	b, err := encodeRecord(val)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// encodeRecord builds val's record in one buffer of its exact size. The
// leaves follow evalengine.Eval's declaration order, except that the
// variable-length workload name moves to the end.
func encodeRecord(val evalengine.Eval) ([]byte, error) {
	name := val.Result.Workload
	if len(name) > maxNameBytes {
		return nil, fmt.Errorf("evalstore: workload name of %d bytes exceeds %d", len(name), maxNameBytes)
	}
	b := make([]byte, 0, len(header)+fixedBytes+2+len(name)+4)
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
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[len(header):], castagnoli)), nil
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

// quarantine moves a bad record aside so it is examined once, not
// re-parsed on every request; if even the move fails the record is
// removed.
func (s *Store) quarantine(path string, reason error) {
	if info, err := os.Lstat(path); err == nil {
		s.bytes.Add(-info.Size())
	}
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantined.Add(1)
	s.entries.Add(-1)
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

// writeNow persists one record with the atomic temp+fsync+rename
// discipline. Write failures are counted and held as the sticky error;
// the evaluation itself already succeeded and is served from memory, so
// nothing upstream fails.
func (s *Store) writeNow(k evalengine.Key, val evalengine.Eval) {
	rec, err := encodeRecord(val)
	if err != nil {
		s.noteWriteErr(err)
		return
	}
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		s.noteWriteErr(err)
		return
	}
	var oldSize int64
	info, statErr := os.Lstat(path)
	existed := statErr == nil
	if existed {
		oldSize = info.Size()
	}
	err = store.WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(rec)
		return err
	})
	if err != nil {
		s.noteWriteErr(err)
		return
	}
	s.writes.Add(1)
	s.bytes.Add(int64(len(rec)) - oldSize)
	if !existed {
		s.entries.Add(1)
	}
}

func (s *Store) noteWriteErr(err error) {
	s.writeErrs.Add(1)
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Flush implements evalengine.CacheBackend: it blocks until every Put
// accepted before the call is durable, and returns the sticky write error
// if any write has failed so far.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close implements evalengine.CacheBackend: it flushes the queue, stops
// the writer, and returns the sticky error. Puts arriving after Close
// write synchronously, so nothing is lost either way. Idempotent.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats implements evalengine.CacheBackend.
func (s *Store) Stats() evalengine.BackendStats {
	n := s.entries.Load()
	if n < 0 {
		n = 0
	}
	b := s.bytes.Load()
	if b < 0 {
		b = 0
	}
	return evalengine.BackendStats{
		Entries:     uint64(n),
		Bytes:       uint64(b),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrs.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }
