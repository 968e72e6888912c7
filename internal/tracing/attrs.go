// Span attributes: the typed results a span ends with. Five kinds carry
// them — an annealing step, a chain, an evaluation (one member, or one
// entry per member of a batch), a matrix row, and the run — so one span
// stream is both the time account and the result account of a run.
//
// Attributes hold plain values captured at span end. The values that are
// costly to render (a configuration's canonical string, a CPI stack's
// bucket map, an interval series, an error's text) are held by reference
// and rendered only when a consumer encodes the span, so a buffering
// recorder pays for none of them. Decoding renders them back as Text,
// CPIMap, json.RawMessage and errorText.

package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Attrs is a span's typed result: *StepAttrs, *ChainAttrs, *EvalAttrs,
// *CellAttrs or *RunAttrs. The set is closed; a stream reader decodes each
// by its span's kind.
type Attrs interface{ attrs() }

// StepAttrs ends a step span: one annealing iteration of one chain (the
// span's Name is the workload, its Arg the 1-based iteration). An
// infeasible step — no proposed point fits — has Feasible false and no
// budget or candidate score.
type StepAttrs struct {
	Chain           int `json:"chain"`
	TotalIterations int `json:"total_iterations"`
	// Move is the move class: "clock", "sched-depth", "lsq-depth",
	// "l1-stages", "l2-stages", "width", "l1-geom" or "l2-geom".
	Move        string  `json:"move"`
	Temperature float64 `json:"temperature"`
	// Budget is the instruction budget the candidate was evaluated at.
	Budget int `json:"budget,omitempty"`
	// Score is the candidate's objective value; CurrentScore and
	// BestScore are the chain's state after the step.
	Score        float64 `json:"score"`
	CurrentScore float64 `json:"current_score"`
	BestScore    float64 `json:"best_score"`
	Feasible     bool    `json:"feasible"`
	Accepted     bool    `json:"accepted"`
	RolledBack   bool    `json:"rolled_back"`
}

// ChainAttrs ends a chain span (Name the workload, Arg the chain index).
type ChainAttrs struct {
	BestScore   float64 `json:"best_score"`
	BestIPT     float64 `json:"best_ipt"`
	Evaluations int     `json:"evaluations"`
}

// EvalAttrs ends an eval.* span (Name the workload): the budget every
// member was evaluated at and one entry per member — one for eval.hit,
// eval.dedup, eval.disk and eval.miss, the whole group for eval.batch.
type EvalAttrs struct {
	Budget  int          `json:"budget"`
	Members []EvalMember `json:"members"`
}

// EvalMember is one evaluation of an eval.* span.
type EvalMember struct {
	// Outcome is how the engine served it: "hit", "dedup", "disk" or
	// "miss".
	Outcome string
	Score   float64
	IPT     float64
	// WallNs is the simulation wall time, amortized evenly across the
	// lanes of its lockstep group; zero unless this span simulated it.
	WallNs int64
	// Config is the evaluated configuration, rendered by its String
	// method; nil on error.
	Config fmt.Stringer
	// CPI is the CPI-stack decomposition, present when the simulation ran
	// with introspection armed.
	CPI CPIBreakdown
	// Intervals is the simulation's interval series — cumulative kernel
	// snapshots, oldest first — present when this span simulated it with
	// interval sampling armed. It is rendered by encoding/json and decoded
	// as the series' compact json.RawMessage, which cmd/xptrace decodes
	// into the kernel's record type.
	Intervals any
	Err       error
}

// CPIBreakdown is a CPI stack as a bucket-name → cycles map.
type CPIBreakdown interface {
	Map() map[string]uint64
}

// Text is a configuration rendered to its canonical string, as decoded
// from a stream.
type Text string

func (t Text) String() string { return string(t) }

// CPIMap is a CPI stack as decoded from a stream.
type CPIMap map[string]uint64

// Map implements CPIBreakdown.
func (m CPIMap) Map() map[string]uint64 { return m }

// errorText is an evaluation error as decoded from a stream.
type errorText string

func (e errorText) Error() string { return string(e) }

// evalMemberJSON is EvalMember's wire form.
type evalMemberJSON struct {
	Outcome   string            `json:"outcome"`
	Score     float64           `json:"score,omitempty"`
	IPT       float64           `json:"ipt,omitempty"`
	WallNs    int64             `json:"wall_ns,omitempty"`
	Config    string            `json:"config,omitempty"`
	CPI       map[string]uint64 `json:"cpi,omitempty"`
	Intervals json.RawMessage   `json:"intervals,omitempty"`
	Error     string            `json:"error,omitempty"`
}

// MarshalJSON renders the member's referenced values.
func (m EvalMember) MarshalJSON() ([]byte, error) {
	w := evalMemberJSON{Outcome: m.Outcome, Score: m.Score, IPT: m.IPT, WallNs: m.WallNs}
	if m.Config != nil {
		w.Config = m.Config.String()
	}
	if m.CPI != nil {
		w.CPI = m.CPI.Map()
	}
	if m.Intervals != nil {
		raw, err := json.Marshal(m.Intervals)
		if err != nil {
			return nil, err
		}
		w.Intervals = raw
	}
	if m.Err != nil {
		w.Error = m.Err.Error()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a member, rejecting unknown fields.
func (m *EvalMember) UnmarshalJSON(data []byte) error {
	var w evalMemberJSON
	if err := decodeStrict(data, &w); err != nil {
		return err
	}
	*m = EvalMember{Outcome: w.Outcome, Score: w.Score, IPT: w.IPT, WallNs: w.WallNs}
	if w.Config != "" {
		m.Config = Text(w.Config)
	}
	if len(w.CPI) > 0 {
		m.CPI = CPIMap(w.CPI)
	}
	if len(w.Intervals) > 0 && string(w.Intervals) != "null" {
		// A series is a list of records; compacting it makes a rewritten
		// stream carry the same bytes.
		var recs []json.RawMessage
		if err := json.Unmarshal(w.Intervals, &recs); err != nil {
			return fmt.Errorf("intervals: %w", err)
		}
		raw, err := json.Marshal(w.Intervals)
		if err != nil {
			return err
		}
		m.Intervals = json.RawMessage(raw)
	}
	if w.Error != "" {
		m.Err = errorText(w.Error)
	}
	return nil
}

// CellAttrs ends a cell span — one matrix row, Name the workload: the
// instruction budget and the IPT on every customized configuration.
type CellAttrs struct {
	Budget int    `json:"budget"`
	Cells  []Cell `json:"cells"`
}

// Cell is one matrix cell: the workload whose customized configuration
// the row's workload ran on, and the IPT it achieved.
type Cell struct {
	Arch string  `json:"arch"`
	IPT  float64 `json:"ipt"`
}

// RunAttrs ends the run span with the evaluation engine's counters; the
// run's wall time is the span's own duration. Cache, lockstep and tier
// counters depend on scheduling, so diffing tools treat them as
// informational rather than drift.
type RunAttrs struct {
	Requests        uint64 `json:"requests"`
	Hits            uint64 `json:"hits"`
	Deduped         uint64 `json:"deduped"`
	Misses          uint64 `json:"misses"`
	Evictions       uint64 `json:"evictions"`
	CacheEntries    uint64 `json:"cache_entries"`
	LockstepGroups  uint64 `json:"lockstep_groups,omitempty"`
	LockstepLanes   uint64 `json:"lockstep_lanes,omitempty"`
	ScalarFallbacks uint64 `json:"scalar_fallbacks,omitempty"`
	// DiskHits are evaluations served from a previous run's persistent
	// tier.
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskMisses uint64 `json:"disk_misses,omitempty"`
}

// UnmarshalJSON decodes run attributes, rejecting unknown fields except
// the remote-tier counters that builds with a remote tier wrote; those
// are read and dropped, so older traces still read.
func (a *RunAttrs) UnmarshalJSON(data []byte) error {
	type fields RunAttrs
	var w struct {
		fields
		RemoteHits   uint64 `json:"remote_hits"`
		RemoteMisses uint64 `json:"remote_misses"`
	}
	if err := decodeStrict(data, &w); err != nil {
		return err
	}
	*a = RunAttrs(w.fields)
	return nil
}

func (*StepAttrs) attrs()  {}
func (*ChainAttrs) attrs() {}
func (*EvalAttrs) attrs()  {}
func (*CellAttrs) attrs()  {}
func (*RunAttrs) attrs()   {}

// newAttrs returns an empty attribute value of the type spans of kind
// carry, or nil when the kind carries none.
func newAttrs(kind string) Attrs {
	switch kind {
	case KindStep:
		return &StepAttrs{}
	case KindChain:
		return &ChainAttrs{}
	case KindEvalHit, KindEvalDedup, KindEvalDisk, KindEvalMiss, KindEvalBatch:
		return &EvalAttrs{}
	case KindCell:
		return &CellAttrs{}
	case KindRun:
		return &RunAttrs{}
	}
	return nil
}

// decodeAttrs decodes raw attributes by the span's kind. Fields of another
// kind's attributes, or of the wrong type, are an error.
func decodeAttrs(kind string, raw json.RawMessage) (Attrs, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	a := newAttrs(kind)
	if a == nil {
		return nil, fmt.Errorf("%q spans carry no attributes", kind)
	}
	if err := decodeStrict(raw, a); err != nil {
		return nil, fmt.Errorf("%s attributes: %w", kind, err)
	}
	return a, nil
}

// decodeStrict unmarshals one JSON value, rejecting unknown fields.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
