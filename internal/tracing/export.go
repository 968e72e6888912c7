// Span-stream persistence and the two exporters. A span stream is JSONL:
// a header line identifying the file and the run, then one span per line
// in the order the spans ended, so a stream is written as the run goes and
// partial files from interrupted runs stay parseable line by line. The
// Chrome exporter emits the trace-event format (the JSON object form with
// a traceEvents array) that chrome://tracing and Perfetto load directly,
// one named thread per worker track; the attribution exporter folds the
// span tree into a per-kind self/total table — the "where did the run's
// time go" answer at a glance.

package tracing

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// streamMagic identifies a span-stream file's header line.
const streamMagic = "xptrace-spans"

// Meta is the header line of a span stream.
type Meta struct {
	Stream string `json:"stream"`
	// Tool names the command that recorded the stream.
	Tool string `json:"tool,omitempty"`
	// TraceID identifies the run or job the stream records. Whoever writes
	// the header mints it with NewTraceID.
	TraceID string `json:"trace_id,omitempty"`
	// Manifest describes the run that recorded the stream, when a tool
	// recorded it.
	Manifest *Manifest `json:"manifest,omitempty"`
}

// NewTraceID returns a fresh trace ID: 16 lower-case hex characters from
// a CSPRNG, with a clock-derived fallback if the system randomness source
// fails (uniqueness is best-effort, not security).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return strconv.FormatUint(uint64(time.Now().UnixNano()), 16)
	}
	return hex.EncodeToString(b[:])
}

// Manifest is what ran, with which knobs, on what build.
type Manifest struct {
	Seed      int64              `json:"seed"`
	GoVersion string             `json:"go_version"`
	OS        string             `json:"os"`
	Arch      string             `json:"arch"`
	MaxProcs  int                `json:"max_procs"`
	Module    string             `json:"module,omitempty"`
	Flags     map[string]string  `json:"flags,omitempty"`
	Tech      map[string]float64 `json:"tech,omitempty"`
}

// StreamWriter writes a span stream as the run goes: the header when it is
// created, then one line per span handed to Write — the consumer behind a
// NewRecorderFunc recorder. Safe for concurrent use: spans are encoded on
// the calling goroutine and written whole under a lock, so concurrent ends
// never tear a line. Errors are sticky and reported by Flush and Close;
// spans written after Close are dropped.
type StreamWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	c      io.Closer
	n      int
	err    error
	closed bool
}

// NewStreamWriter writes meta's header line to w. If w is an io.Closer,
// Close closes it.
func NewStreamWriter(w io.Writer, meta Meta) *StreamWriter {
	meta.Stream = streamMagic
	sw := &StreamWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		sw.c = c
	}
	sw.writeLine(meta, 0)
	return sw
}

// Write appends one span.
func (w *StreamWriter) Write(s Span) { w.writeLine(s, 1) }

// writeLine encodes v outside the lock, appends it as one line, and adds
// spans to the count.
func (w *StreamWriter) writeLine(v any, spans int) {
	line, err := json.Marshal(v)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.err != nil {
		return
	}
	if err != nil {
		w.err = fmt.Errorf("tracing: encoding span stream line %d: %w", w.n+1, err)
		return
	}
	if _, err := w.bw.Write(append(line, '\n')); err != nil {
		w.err = err
		return
	}
	w.n += spans
}

// Len reports how many spans have been written.
func (w *StreamWriter) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Flush pushes buffered lines through to the underlying writer, so a
// reader tailing it sees every span written so far.
func (w *StreamWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && !w.closed {
		w.err = w.bw.Flush()
	}
	return w.err
}

// Close flushes and closes the stream, returning the first error seen.
// Idempotent.
func (w *StreamWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.c != nil {
		if err := w.c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// spanLine is a span's wire form on the read side: the attributes stay raw
// until the kind is known.
type spanLine struct {
	Span
	Attrs json.RawMessage `json:"attrs,omitempty"`
}

// ReadSpans parses a span stream, returning the spans in file order. On a
// malformed line it returns the spans before it with the error. Fields it
// does not know are skipped, so streams written by older builds still
// read.
func ReadSpans(r io.Reader) (Meta, []Span, error) {
	dec := json.NewDecoder(r)
	var meta Meta
	if err := dec.Decode(&meta); err != nil {
		return Meta{}, nil, fmt.Errorf("tracing: span stream header: %w", err)
	}
	if meta.Stream != streamMagic {
		return Meta{}, nil, fmt.Errorf("tracing: not a span stream: the first line must be a {\"stream\":%q} header (got stream %q)",
			streamMagic, meta.Stream)
	}
	var spans []Span
	for {
		var l spanLine
		if err := dec.Decode(&l); err == io.EOF {
			return meta, spans, nil
		} else if err != nil {
			return meta, spans, fmt.Errorf("tracing: span line %d: %w", len(spans)+2, err)
		}
		a, err := decodeAttrs(l.Kind, l.Attrs)
		if err != nil {
			return meta, spans, fmt.Errorf("tracing: span line %d: %w", len(spans)+2, err)
		}
		l.Span.Attrs = a
		spans = append(spans, l.Span)
	}
}

// chromeEvent is one Chrome trace-event object. Field order is fixed by
// the struct, so the exported bytes are deterministic for a given input —
// the golden test depends on it.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports spans as a Chrome trace-event JSON document
// loadable in chrome://tracing or Perfetto. Tracks become named threads:
// track 0 is "main", track 1+w is "worker w". Timestamps are microseconds
// (the format's unit) relative to the recorder's origin.
func WriteChromeTrace(w io.Writer, tool string, spans []Span) error {
	tracks := map[int32]bool{}
	for _, s := range spans {
		tracks[s.Track] = true
	}
	order := make([]int32, 0, len(tracks))
	for t := range tracks {
		order = append(order, t)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	events := make([]chromeEvent, 0, len(spans)+len(order)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": tool},
	})
	for _, t := range order {
		name := "main"
		if t > 0 {
			name = fmt.Sprintf("worker %d", t-1)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: int(t),
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range spans {
		name := s.Kind
		if s.Name != "" {
			name = s.Kind + " " + s.Name
		}
		events = append(events, chromeEvent{
			Name: name,
			Cat:  s.Kind,
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.DurNs()) / 1e3,
			Pid:  1,
			Tid:  int(s.Track),
			Args: map[string]any{"id": uint64(s.ID), "parent": uint64(s.Parent), "arg": s.Arg},
		})
	}

	return writeChromeEvents(w, events)
}

// writeChromeEvents serializes a trace-event document: one event per line
// inside the traceEvents array, deterministic for a given event slice.
func writeChromeEvents(w io.Writer, events []chromeEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range events {
		buf, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("tracing: chrome event %d: %w", i, err)
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// KindStat aggregates the spans of one kind: how many there were, the
// total (inclusive) time they covered, and the self time — total minus the
// time covered by their child spans, i.e. the time attributable to that
// layer itself rather than the layers below it.
type KindStat struct {
	Kind    string
	Count   int
	TotalNs int64
	SelfNs  int64
	MaxNs   int64
}

// Aggregate folds spans into per-kind statistics, ordered by descending
// self time. Orphan spans (parent missing from the set) simply contribute
// no child time upward; negative self times from clock skew are clamped.
func Aggregate(spans []Span) []KindStat {
	childNs := make(map[SpanID]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.DurNs()
		}
	}
	byKind := map[string]*KindStat{}
	for _, s := range spans {
		st := byKind[s.Kind]
		if st == nil {
			st = &KindStat{Kind: s.Kind}
			byKind[s.Kind] = st
		}
		d := s.DurNs()
		st.Count++
		st.TotalNs += d
		if self := d - childNs[s.ID]; self > 0 {
			st.SelfNs += self
		}
		if d > st.MaxNs {
			st.MaxNs = d
		}
	}
	out := make([]KindStat, 0, len(byKind))
	for _, st := range byKind {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WriteAttribution renders the aggregated self/total table. Self
// percentages are against the sum of self times (which equals the run's
// covered wall-clock across tracks), so the column sums to ~100%.
func WriteAttribution(w io.Writer, spans []Span) error {
	stats := Aggregate(spans)
	var selfSum int64
	for _, st := range stats {
		selfSum += st.SelfNs
	}
	if _, err := fmt.Fprintf(w, "%-12s %8s %12s %12s %7s %12s\n",
		"kind", "count", "total", "self", "self%", "max"); err != nil {
		return err
	}
	for _, st := range stats {
		pct := 0.0
		if selfSum > 0 {
			pct = 100 * float64(st.SelfNs) / float64(selfSum)
		}
		if _, err := fmt.Fprintf(w, "%-12s %8d %12s %12s %6.1f%% %12s\n",
			st.Kind, st.Count, fmtNs(st.TotalNs), fmtNs(st.SelfNs), pct, fmtNs(st.MaxNs)); err != nil {
			return err
		}
	}
	return nil
}

// fmtNs renders a duration compactly with a unit chosen by magnitude.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
