// Trace capture and replay. The synthetic generators stand in for SPEC2000
// binaries, but the simulator itself only needs an instruction stream —
// Source is that seam. A trace captured from a generator (or produced by
// any external tool that writes the format) replays bit-identically,
// letting users bring real program traces to the same exploration pipeline.

package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Source supplies a dynamic instruction stream. Generator implements it;
// TraceReader replays captured streams.
//
// Next and NextBatch draw from the same stream: a batch of k instructions
// is exactly the k instructions k successive Next calls would have
// produced, so consumers may mix the two freely. NextBatch exists for the
// simulation hot path — one call delivers a slab of instructions, turning
// per-instruction interface dispatch into a near-memcpy for replayed
// traces.
type Source interface {
	// Next fills ins with the next dynamic instruction.
	Next(ins *Instr)
	// NextBatch fills dst with the next len(dst) instructions of the
	// stream and returns the number written. The repo's sources are
	// unbounded (generators never end, trace replay wraps), so they
	// always fill dst completely; the count return leaves room for
	// finite external sources.
	NextBatch(dst []Instr) int
}

var (
	_ Source = (*Generator)(nil)
	_ Source = (*TraceReader)(nil)
)

// traceMagic identifies the binary trace format.
var traceMagic = [8]byte{'X', 'P', 'T', 'R', 'A', 'C', 'E', '1'}

// traceRecord is the fixed-width on-disk instruction layout.
type traceRecord struct {
	Op       uint8
	Taken    uint8
	Src1Dist int32
	Src2Dist int32
	PC       uint64
	Addr     uint64
}

// WriteTrace captures n instructions from the source into w using the
// binary trace format.
func WriteTrace(w io.Writer, src Source, n int) error {
	if n <= 0 {
		return fmt.Errorf("workload: trace length %d must be positive", n)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(n)); err != nil {
		return err
	}
	var ins Instr
	var rec traceRecord
	for i := 0; i < n; i++ {
		src.Next(&ins)
		rec = traceRecord{
			Op:       uint8(ins.Op),
			Src1Dist: ins.Src1Dist,
			Src2Dist: ins.Src2Dist,
			PC:       ins.PC,
			Addr:     ins.Addr,
		}
		if ins.Taken {
			rec.Taken = 1
		}
		if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// initialTraceCap caps the records ReadTrace allocates room for before
// any has been read (160 KiB of Instr).
const initialTraceCap = 4096

// TraceReader replays a captured trace as a Source. When the consumer reads
// past the end, the trace wraps around to the beginning (the usual
// discipline when a simulation window exceeds the captured sample).
type TraceReader struct {
	instrs []Instr
	pos    int
}

// ReadTrace loads a full trace into memory.
func ReadTrace(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", magic)
	}
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("workload: trace length: %w", err)
	}
	if n == 0 || n > 1<<30 {
		return nil, fmt.Errorf("workload: implausible trace length %d", n)
	}
	// The slice grows as records arrive instead of trusting the count:
	// a 16-byte input claiming 1<<30 records must fail on its missing
	// body, not allocate 40 GiB first.
	instrs := make([]Instr, 0, min(n, initialTraceCap))
	var rec traceRecord
	for i := uint64(0); i < n; i++ {
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("workload: trace record %d: %w", i, err)
		}
		if rec.Op >= uint8(opCount) {
			return nil, fmt.Errorf("workload: trace record %d has unknown opcode %d", i, rec.Op)
		}
		if rec.Src1Dist < 0 || rec.Src2Dist < 0 {
			return nil, fmt.Errorf("workload: trace record %d has negative dependence distance", i)
		}
		instrs = append(instrs, Instr{
			Op:       Op(rec.Op),
			Taken:    rec.Taken != 0,
			Src1Dist: rec.Src1Dist,
			Src2Dist: rec.Src2Dist,
			PC:       rec.PC,
			Addr:     rec.Addr,
		})
	}
	return &TraceReader{instrs: instrs}, nil
}

// NewTraceReaderFrom captures the next n instructions of src into an
// in-memory trace — WriteTrace followed by ReadTrace without the encoding
// round trip. Useful for pinning one stream across repeated replays.
func NewTraceReaderFrom(src Source, n int) *TraceReader {
	tr := &TraceReader{instrs: make([]Instr, n)}
	src.NextBatch(tr.instrs)
	return tr
}

// Len returns the number of captured instructions.
func (t *TraceReader) Len() int { return len(t.instrs) }

// Next replays the next instruction, wrapping at the end of the trace.
func (t *TraceReader) Next(ins *Instr) {
	*ins = t.instrs[t.pos]
	t.pos++
	if t.pos == len(t.instrs) {
		t.pos = 0
	}
}

// NextBatch replays the next len(dst) instructions as bulk copies of the
// captured slice, wrapping at the end of the trace exactly as repeated
// Next calls would.
func (t *TraceReader) NextBatch(dst []Instr) int {
	if len(t.instrs) == 0 {
		return 0
	}
	n := 0
	for n < len(dst) {
		c := copy(dst[n:], t.instrs[t.pos:])
		n += c
		t.pos += c
		if t.pos == len(t.instrs) {
			t.pos = 0
		}
	}
	return n
}

// Reset rewinds the replay to the start of the trace.
func (t *TraceReader) Reset() { t.pos = 0 }
