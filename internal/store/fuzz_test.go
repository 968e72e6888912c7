package store

import (
	"bytes"
	"reflect"
	"testing"

	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
)

// FuzzReadOutcomes feeds arbitrary bytes to ReadOutcomes, the reader of
// the outcome files the analysis tools load with -source outcomes:<path>.
// No input may panic. Every accepted configuration must pass Validate and
// hold caches within the fit ranges' upper bounds, so simulating it
// allocates a bounded amount of memory. Accepted outcomes survive
// WriteOutcomes → ReadOutcomes unchanged. The seed corpus in
// testdata/fuzz/FuzzReadOutcomes holds a valid 2-outcome file, an outcome
// whose 128 GiB L2 fits its budget at a 1 ms clock, a wrong format string
// and truncated JSON.
//
//	go test ./internal/store -run '^$' -fuzz FuzzReadOutcomes -fuzztime 60s
func FuzzReadOutcomes(f *testing.F) {
	tp := tech.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		outs, err := ReadOutcomes(bytes.NewReader(data), tp)
		if err != nil {
			if outs != nil {
				t.Fatalf("error %v returned alongside %d outcomes", err, len(outs))
			}
			return
		}
		for i, o := range outs {
			if err := o.Best.Validate(tp); err != nil {
				t.Fatalf("outcome %d accepted with an invalid config: %v", i, err)
			}
			// Float products cannot overflow into a small capacity.
			for _, c := range []struct {
				geom  timing.CacheGeom
				limit int
			}{{o.Best.L1D, timing.MaxL1Bytes}, {o.Best.L2, timing.MaxL2Bytes}} {
				g := c.geom
				if capacity := float64(g.Sets) * float64(g.Assoc) * float64(g.BlockBytes); capacity > float64(c.limit) {
					t.Fatalf("outcome %d accepted with a %v cache above the %dB limit", i, g, c.limit)
				}
			}
		}

		var buf bytes.Buffer
		if err := WriteOutcomes(&buf, outs); err != nil {
			t.Fatalf("re-encoding accepted outcomes: %v", err)
		}
		again, err := ReadOutcomes(&buf, tp)
		if err != nil {
			t.Fatalf("decoding re-encoded outcomes: %v", err)
		}
		if !reflect.DeepEqual(again, outs) {
			t.Fatalf("WriteOutcomes → ReadOutcomes changed the outcomes:\n got  %+v\nwant %+v", again, outs)
		}
	})
}

// FuzzReadMatrix feeds arbitrary bytes to ReadMatrix, the reader of saved
// cross-configuration matrices. No input may panic. An accepted matrix is
// square, its names are distinct and non-empty, and every cell is
// positive; it survives WriteMatrix → ReadMatrix unchanged. The seed corpus
// in testdata/fuzz/FuzzReadMatrix holds a valid 2×2 matrix, a ragged one,
// one with a non-positive cell and a wrong format string.
//
//	go test ./internal/store -run '^$' -fuzz FuzzReadMatrix -fuzztime 60s
func FuzzReadMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMatrix(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned alongside a matrix", err)
			}
			return
		}
		n := len(m.Names)
		if n == 0 || len(m.IPT) != n {
			t.Fatalf("accepted %d rows for %d names", len(m.IPT), n)
		}
		seen := map[string]bool{}
		for i, row := range m.IPT {
			if len(row) != n {
				t.Fatalf("accepted row %d of %d cells in a %d-name matrix", i, len(row), n)
			}
			for j, v := range row {
				if !(v > 0) {
					t.Fatalf("accepted IPT[%d][%d] = %v", i, j, v)
				}
			}
			if name := m.Names[i]; name == "" || seen[name] {
				t.Fatalf("accepted empty or duplicate name %q", name)
			}
			seen[m.Names[i]] = true
		}

		var buf bytes.Buffer
		if err := WriteMatrix(&buf, m); err != nil {
			t.Fatalf("re-encoding an accepted matrix: %v", err)
		}
		again, err := ReadMatrix(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded matrix: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("WriteMatrix → ReadMatrix changed the matrix:\n got  %+v\nwant %+v", again, m)
		}
	})
}
