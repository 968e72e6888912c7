// Package store persists exploration outcomes and cross-configuration
// matrices as JSON, so the expensive phases of the workflow (the paper's
// three-week exploration; our minutes of annealing) run once and the
// analysis layer iterates on saved artifacts — the same division the paper
// draws between the exploration tool and the combination-search tool.
package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xpscalar/internal/core"
	"xpscalar/internal/explore"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/timing"
)

// configJSON is the stable on-disk form of a configuration.
type configJSON struct {
	ClockNs        float64 `json:"clock_ns"`
	Width          int     `json:"width"`
	FrontEndStages int     `json:"front_end_stages"`
	ROBSize        int     `json:"rob"`
	IQSize         int     `json:"iq"`
	LSQSize        int     `json:"lsq"`
	SchedDepth     int     `json:"sched_depth"`
	LSQDepth       int     `json:"lsq_depth"`
	WakeupMinLat   int     `json:"wakeup_min_lat"`
	L1DSets        int     `json:"l1d_sets"`
	L1DAssoc       int     `json:"l1d_assoc"`
	L1DBlock       int     `json:"l1d_block"`
	L1DLat         int     `json:"l1d_lat"`
	L2Sets         int     `json:"l2_sets"`
	L2Assoc        int     `json:"l2_assoc"`
	L2Block        int     `json:"l2_block"`
	L2Lat          int     `json:"l2_lat"`
	MemCycles      int     `json:"mem_cycles"`
}

func toJSON(c sim.Config) configJSON {
	return configJSON{
		ClockNs: c.ClockNs, Width: c.Width, FrontEndStages: c.FrontEndStages,
		ROBSize: c.ROBSize, IQSize: c.IQSize, LSQSize: c.LSQSize,
		SchedDepth: c.SchedDepth, LSQDepth: c.LSQDepth, WakeupMinLat: c.WakeupMinLat,
		L1DSets: c.L1D.Sets, L1DAssoc: c.L1D.Assoc, L1DBlock: c.L1D.BlockBytes, L1DLat: c.L1DLat,
		L2Sets: c.L2.Sets, L2Assoc: c.L2.Assoc, L2Block: c.L2.BlockBytes, L2Lat: c.L2Lat,
		MemCycles: c.MemCycles,
	}
}

func fromJSON(j configJSON, t tech.Params) sim.Config {
	return sim.Config{
		ClockNs: j.ClockNs, Width: j.Width, FrontEndStages: j.FrontEndStages,
		ROBSize: j.ROBSize, IQSize: j.IQSize, LSQSize: j.LSQSize,
		SchedDepth: j.SchedDepth, LSQDepth: j.LSQDepth, WakeupMinLat: j.WakeupMinLat,
		L1D:    timing.CacheGeom{Sets: j.L1DSets, Assoc: j.L1DAssoc, BlockBytes: j.L1DBlock},
		L1DLat: j.L1DLat,
		L2:     timing.CacheGeom{Sets: j.L2Sets, Assoc: j.L2Assoc, BlockBytes: j.L2Block},
		L2Lat:  j.L2Lat, MemCycles: j.MemCycles,
		Bpred: sim.InitialConfig(t).Bpred,
	}
}

// outcomeJSON is the on-disk form of one exploration outcome.
type outcomeJSON struct {
	Workload    string     `json:"workload"`
	Config      configJSON `json:"config"`
	IPT         float64    `json:"ipt"`
	Score       float64    `json:"score"`
	Evaluations int        `json:"evaluations"`
}

type outcomesFile struct {
	Format   string        `json:"format"`
	Outcomes []outcomeJSON `json:"outcomes"`
}

const outcomesFormat = "xpscalar-outcomes-v1"

// WriteOutcomes serializes exploration outcomes.
func WriteOutcomes(w io.Writer, outs []explore.Outcome) error {
	f := outcomesFile{Format: outcomesFormat}
	for _, o := range outs {
		f.Outcomes = append(f.Outcomes, outcomeJSON{
			Workload:    o.Workload,
			Config:      toJSON(o.Best),
			IPT:         o.BestIPT,
			Score:       o.BestScore,
			Evaluations: o.Evaluations,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadOutcomes deserializes exploration outcomes; every configuration is
// re-validated against the technology before being returned.
func ReadOutcomes(r io.Reader, t tech.Params) ([]explore.Outcome, error) {
	var f outcomesFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("store: decode outcomes: %w", err)
	}
	if f.Format != outcomesFormat {
		return nil, fmt.Errorf("store: format %q, want %q", f.Format, outcomesFormat)
	}
	var outs []explore.Outcome
	for i, oj := range f.Outcomes {
		cfg := fromJSON(oj.Config, t)
		if err := cfg.Validate(t); err != nil {
			return nil, fmt.Errorf("store: outcome %d (%s): %w", i, oj.Workload, err)
		}
		outs = append(outs, explore.Outcome{
			Workload:    oj.Workload,
			Best:        cfg,
			BestIPT:     oj.IPT,
			BestScore:   oj.Score,
			Evaluations: oj.Evaluations,
		})
	}
	return outs, nil
}

// WriteAtomic writes an artifact through write and installs it at path
// atomically: the bytes go to a temporary file in path's directory, are
// fsynced, and only then renamed over path. A crash, interrupt or write
// failure at any point leaves the previous file (if any) untouched — an
// interrupted save can never expose a truncated or corrupt artifact. It
// is the write discipline of the saved artifacts: outcome and matrix
// saves here. (The evaluation store, internal/evalstore, appends
// checksummed entries to one pack file instead.)
func WriteAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Best effort: persist the rename itself. Not all platforms support
	// fsync on directories; the data file is already durable either way.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// SaveOutcomes writes outcomes to a file, atomically (see WriteAtomic).
func SaveOutcomes(path string, outs []explore.Outcome) error {
	return WriteAtomic(path, func(w io.Writer) error {
		return WriteOutcomes(w, outs)
	})
}

// LoadOutcomes reads outcomes from a file.
func LoadOutcomes(path string, t tech.Params) ([]explore.Outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return ReadOutcomes(f, t)
}

type matrixFile struct {
	Format string      `json:"format"`
	Names  []string    `json:"names"`
	IPT    [][]float64 `json:"ipt"`
}

const matrixFormat = "xpscalar-matrix-v1"

// WriteMatrix serializes a cross-configuration matrix.
func WriteMatrix(w io.Writer, m *core.Matrix) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(matrixFile{Format: matrixFormat, Names: m.Names, IPT: m.IPT})
}

// ReadMatrix deserializes and re-validates a matrix.
func ReadMatrix(r io.Reader) (*core.Matrix, error) {
	var f matrixFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("store: decode matrix: %w", err)
	}
	if f.Format != matrixFormat {
		return nil, fmt.Errorf("store: format %q, want %q", f.Format, matrixFormat)
	}
	return core.NewMatrix(f.Names, f.IPT)
}

// SaveMatrix writes a matrix to a file, atomically (see WriteAtomic).
func SaveMatrix(path string, m *core.Matrix) error {
	return WriteAtomic(path, func(w io.Writer) error {
		return WriteMatrix(w, m)
	})
}

// LoadMatrix reads a matrix from a file.
func LoadMatrix(path string) (*core.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return ReadMatrix(f)
}
