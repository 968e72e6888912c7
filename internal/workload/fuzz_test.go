package workload

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace, the reader of the trace
// files users bring to the simulator. No input may panic, and none may make
// ReadTrace allocate much more than its own bytes could hold. An input is
// accepted exactly when an independent decoder accepts it: the magic, a
// count in [1, 1<<30], and that many whole records with known opcodes and
// non-negative dependence distances; a truncated body, bad magic or a bad
// opcode is an error. An accepted trace decodes to the same instructions,
// and survives WriteTrace → ReadTrace unchanged. The seed corpus in
// testdata/fuzz/FuzzReadTrace holds a valid 3-record trace, a truncated
// body, bad magic, a bare header claiming 1<<30 records, and an unknown
// opcode.
//
//	go test ./internal/workload -run '^$' -fuzz FuzzReadTrace -fuzztime 60s
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// ReadTrace allocates its buffered reader, at most initialTraceCap
		// records up front, and then amortized slice growth and per-record
		// decoding in proportion to the records present. 1 MiB plus 64
		// bytes per input byte covers that with room to spare; trusting
		// the header's count would allocate gigabytes.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(data)); alloc > bound {
			t.Fatalf("ReadTrace of %d bytes allocated %d bytes (bound %d)", len(data), alloc, bound)
		}

		want, ok := decodeTraceBytes(data)
		if !ok {
			if err == nil {
				t.Fatalf("accepted a malformed trace of %d records", tr.Len())
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected a well-formed trace of %d records: %v", len(want), err)
		}
		if !reflect.DeepEqual(tr.instrs, want) {
			t.Fatalf("decoded %+v, want %+v", tr.instrs, want)
		}

		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr, tr.Len()); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(again.instrs, tr.instrs) {
			t.Fatalf("WriteTrace → ReadTrace changed the trace:\n got  %+v\nwant %+v", again.instrs, tr.instrs)
		}
	})
}

// decodeTraceBytes decodes a trace straight from its byte layout, for
// FuzzReadTrace to check ReadTrace against, and reports whether it is well
// formed. Bytes after the last counted record are ignored, as ReadTrace
// ignores them.
func decodeTraceBytes(data []byte) ([]Instr, bool) {
	recBytes := uint64(binary.Size(traceRecord{}))
	if len(data) < 16 || !bytes.Equal(data[:8], traceMagic[:]) {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n == 0 || n > 1<<30 || uint64(len(data)-16)/recBytes < n {
		return nil, false
	}
	out := make([]Instr, n)
	for i := range out {
		rec := data[16+uint64(i)*recBytes:]
		ins := Instr{
			Op:       Op(rec[0]),
			Taken:    rec[1] != 0,
			Src1Dist: int32(binary.LittleEndian.Uint32(rec[2:])),
			Src2Dist: int32(binary.LittleEndian.Uint32(rec[6:])),
			PC:       binary.LittleEndian.Uint64(rec[10:]),
			Addr:     binary.LittleEndian.Uint64(rec[18:]),
		}
		if ins.Op >= opCount || ins.Src1Dist < 0 || ins.Src2Dist < 0 {
			return nil, false
		}
		out[i] = ins
	}
	return out, true
}
