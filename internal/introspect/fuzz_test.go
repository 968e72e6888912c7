package introspect

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"xpscalar/internal/pipeline"
)

// FuzzReadRecords feeds arbitrary bytes to ReadRecords, the reader of the
// -intervals files xptrace intervals renders. No input may panic, and the
// records it accepts survive WriteJSONL → ReadRecords unchanged.
//
//	go test ./internal/introspect -run '^$' -fuzz FuzzReadRecords -fuzztime 60s
func FuzzReadRecords(f *testing.F) {
	var stack pipeline.CPIStack
	stack[pipeline.BucketBase], stack[pipeline.BucketLoadMem] = 600, 400
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Record{
		{Workload: "gzip", Config: "w=4 rob=64", Seq: 0, IntervalRecord: pipeline.IntervalRecord{Instructions: 500, Cycles: 1000, Stack: stack}},
		{Workload: "gzip", Config: "w=4 rob=64", Lane: 1, Seq: 1, IntervalRecord: pipeline.IntervalRecord{Instructions: 1000, Cycles: 1900, LoadsMem: 7}},
	}); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add("\n\n" + strings.Replace(valid, `"cycles":1000`, `"cycles":-1`, 1))
	f.Add(`{"workload":"gzip","stack":[1,2,3,4,5,6,7,8,9,10,11,12,13]}` + "\n")
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadRecords(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, recs); err != nil {
			t.Fatalf("accepted records do not encode: %v", err)
		}
		again, err := ReadRecords(&out)
		if err != nil {
			t.Fatalf("rewritten records unreadable: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("records changed across a round trip:\ngot  %+v\nwant %+v", again, recs)
		}
	})
}
