package evalstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"xpscalar/internal/evalengine"
)

// FuzzDecodeRecord feeds arbitrary bytes to DecodeRecord, the single
// reader of record files on disk and of remote-tier HTTP bodies. No input
// may panic; every input yields either an error (with a zero record) or a
// record; and EncodeRecord turns a decoded record back into exactly the
// input bytes, since the layout is fixed. The seed corpus in testdata/fuzz/FuzzDecodeRecord holds
// a valid record and three corruptions of it (a trailing byte, a name
// length that overstates the name, a flipped checksum bit), a record of
// the retired gob format (v1-record), a bare header, an empty input and a
// truncated record.
//
//	go test ./internal/evalstore -run '^$' -fuzz FuzzDecodeRecord -fuzztime 60s
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		val, err := DecodeRecord(bytes.NewReader(data))
		if err != nil {
			if !reflect.DeepEqual(val, evalengine.Eval{}) {
				t.Fatalf("error %v returned alongside a record: %+v", err, val)
			}
			return
		}
		var buf bytes.Buffer
		if err := EncodeRecord(&buf, val); err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("encode→decode changed the record:\n got  %q\nwant %q", buf.Bytes(), data)
		}
	})
}

// FuzzLoadPack writes arbitrary bytes as a store's pack and opens it. Open
// must succeed without panicking, whatever the pack holds; every key it
// indexes must be served as an evaluation whose record re-encodes to
// exactly the record bytes stored for it; Bytes must be the pack's size;
// and Entries never exceeds the number of whole entries in the input, as
// counted by wholeEntries. The seeds are two valid entries, then each with
// one fault: a torn tail, a flipped key bit, garbage between the two, and
// an entry between them whose record carries the previous header.
//
//	go test ./internal/evalstore -run '^$' -fuzz FuzzLoadPack -fuzztime 60s
func FuzzLoadPack(f *testing.F) {
	named := testEval(2)
	named.Result.Workload = "gzip"
	a := frame(testKey(1), record(f, testEval(1)))
	b := frame(testKey(2), record(f, named))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flipped := bytes.Clone(a)
	flipped[0] ^= 1
	f.Add(cat(a, b))
	f.Add(cat(a, b[:len(b)-7]))
	f.Add(cat(flipped, b))
	f.Add(cat(a, []byte(header+"not a record at all"), b))
	f.Add(cat(a, frame(testKey(3), previousVersion(record(f, testEval(3)))), b))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writePack(t, dir, data)
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		st := s.Stats()
		if whole := wholeEntries(data); st.Entries > uint64(whole) {
			t.Fatalf("%d entries indexed from %d whole entries", st.Entries, whole)
		}
		if st.Bytes != uint64(len(data)) {
			t.Fatalf("Bytes %d for a %d-byte pack", st.Bytes, len(data))
		}
		spans := make(map[evalengine.Key]span, len(s.index))
		for k, sp := range s.index {
			spans[k] = sp
		}
		for k, sp := range spans {
			val, ok := s.Get(k)
			if !ok {
				t.Fatalf("indexed key %v missed", k)
			}
			if got, want := record(t, val), data[sp.off:sp.off+int64(sp.n)]; !bytes.Equal(got, want) {
				t.Fatalf("key %v served a record that re-encodes as\n %q\nnot the stored\n %q", k, got, want)
			}
		}
	})
}

// wholeEntries counts the offsets in data at which a whole entry starts:
// a key, a record DecodeRecord accepts, and a matching CRC-32C of both.
func wholeEntries(data []byte) int {
	n := 0
	for i := range data {
		e := data[i:]
		if len(e) < entryPrefix || !bytes.HasPrefix(e[keyBytes:], []byte(header)) {
			continue
		}
		recLen := recordLen(int(binary.LittleEndian.Uint16(e[entryPrefix-2:])))
		if len(e) < keyBytes+recLen+4 {
			continue
		}
		body := e[:keyBytes+recLen]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(e[len(body):]) {
			continue
		}
		if _, err := DecodeRecord(bytes.NewReader(body[keyBytes:])); err == nil {
			n++
		}
	}
	return n
}
