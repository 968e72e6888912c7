package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	p, _ := ByName("gcc")
	gen, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	const n = 5000
	if err := WriteTrace(&buf, gen, n); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("trace length %d, want %d", tr.Len(), n)
	}

	// The replay must be bit-identical to a fresh generator.
	gen.Reset()
	var a, b Instr
	for i := 0; i < n; i++ {
		gen.Next(&a)
		tr.Next(&b)
		if a != b {
			t.Fatalf("replay diverges at %d:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestTraceWrapsAround(t *testing.T) {
	p, _ := ByName("gzip")
	gen, _ := NewGenerator(p)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, gen, 100); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var first, again Instr
	tr.Next(&first)
	for i := 0; i < 99; i++ {
		tr.Next(&again)
	}
	tr.Next(&again) // instruction 101 wraps to the first
	if first != again {
		t.Errorf("wraparound replay differs:\n%+v\n%+v", first, again)
	}
	tr.Reset()
	var reset Instr
	tr.Next(&reset)
	if reset != first {
		t.Error("Reset did not rewind")
	}
}

func TestWriteTraceRejectsBadLength(t *testing.T) {
	p, _ := ByName("gzip")
	gen, _ := NewGenerator(p)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, gen, 0); err == nil {
		t.Error("accepted zero-length trace")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("short")); err == nil {
		t.Error("accepted truncated header")
	}
	if _, err := ReadTrace(strings.NewReader("WRONGMAG" + strings.Repeat("\x00", 100))); err == nil {
		t.Error("accepted bad magic")
	}
	// Valid header claiming more records than present.
	var buf bytes.Buffer
	buf.Write(traceMagic[:])
	buf.Write([]byte{10, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("accepted truncated body")
	}
	// A bare 16-byte header claiming 1<<30 records must fail on the
	// missing body without first allocating room for them.
	buf.Reset()
	buf.Write(traceMagic[:])
	buf.Write([]byte{0, 0, 0, 0x40, 0, 0, 0, 0})
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("accepted a header-only trace claiming 1<<30 records")
	}
}
