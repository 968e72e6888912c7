package evalstore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"xpscalar/internal/evalengine"
)

// FuzzDecodeRecord feeds arbitrary bytes to DecodeRecord, the single
// reader of record files on disk and of remote-tier HTTP bodies. No input
// may panic; every input yields either an error (with a zero record) or a
// record; and a decoded record survives EncodeRecord → DecodeRecord
// unchanged. The seed corpus in testdata/fuzz/FuzzDecodeRecord holds a
// valid record, a bare header, an empty input and a truncated payload.
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
		again, err := DecodeRecord(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded record: %v", err)
		}
		// %#v prints floats at full round-trip precision and NaN as NaN,
		// so this compares field for field where DeepEqual would reject
		// every NaN.
		if a, b := fmt.Sprintf("%#v", val), fmt.Sprintf("%#v", again); a != b {
			t.Fatalf("encode→decode changed the record:\n got  %s\nwant %s", b, a)
		}
	})
}
