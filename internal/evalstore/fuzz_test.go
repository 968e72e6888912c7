package evalstore

import (
	"bytes"
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
