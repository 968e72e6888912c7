// Lockstep multi-configuration simulation. Configurational exploration
// spends nearly all its time re-simulating near-identical configurations
// on the same workload — an annealing neighborhood differs in one
// parameter, a characterization-matrix row evaluates every customized
// configuration against one profile — yet a scalar run re-fetches and
// re-decodes the instruction stream for each of them. MultiCore advances N
// cores over ONE shared stream: each delivery slab is pulled from the
// source once (one NextBatch call, one transpose into the shared
// structure-of-arrays block) and consumed by all N lanes, so source cost
// is amortized N ways and the slab's columns stay hot in cache across
// lanes. The simulated machines never interact — results are bit-identical
// to N scalar runs over the same stream.

package pipeline

import (
	"fmt"

	"xpscalar/internal/bpred"
	"xpscalar/internal/cache"
	"xpscalar/internal/workload"
)

// MultiCore is a pool of lockstep lanes plus the delivery block they
// share. The zero value is ready to use; like Core, it reuses every arena
// across runs and allocates only when a run outgrows all previous ones.
// Not safe for concurrent use.
type MultiCore struct {
	cores []Core
	blk   workload.Block

	// Introspection configuration (see cpi.go), armed by SetIntrospection
	// and applied to every lane of the next Run; the lanes point at intro.
	introOn bool
	intro   Introspection
}

// SetIntrospection arms CPI-stack accounting on every lane of subsequent
// runs and, with a positive interval, interval sampling as on a scalar
// Core. The setting is sticky across runs.
func (m *MultiCore) SetIntrospection(interval int) {
	m.introOn = true
	m.intro = Introspection{Interval: interval}
}

// DisableIntrospection disarms introspection for subsequent runs.
func (m *MultiCore) DisableIntrospection() {
	m.introOn = false
	m.intro = Introspection{}
}

// LaneCPI returns lane i's CPI stack from the most recent Run (zeros when
// introspection was off). Valid until the next Run.
func (m *MultiCore) LaneCPI(i int) CPIStack { return m.cores[i].cpi }

// LaneIntervals returns lane i's interval series from the most recent Run
// (empty when sampling was off). The slice is the lane's own, reused by
// the next Run: copy what must outlive it.
func (m *MultiCore) LaneIntervals(i int) []IntervalRecord { return m.cores[i].intervals }

// Run simulates the same n instructions of src's stream on len(ps) core
// configurations in lockstep. Lane i runs ps[i] with predictor preds[i]
// and cache hierarchy mems[i] — consumed, exactly as a scalar run consumes
// them — and its summary lands in dst[i]. Every lane observes the stream a
// scalar Core.Run over the same source would have observed: the shared
// block holds exactly the instructions the source delivers, lanes pause at
// slab boundaries (mid-cycle pauses included) and resume after the next
// fill, and the simulated machines share nothing else. On error (an
// invalid lane configuration, or a model bug surfacing in one lane) no
// result is valid.
func (m *MultiCore) Run(dst []Result, ps []Params, src workload.Source, preds []bpred.Predictor, mems []*cache.Hierarchy, n int) error {
	k := len(ps)
	if k == 0 {
		return fmt.Errorf("pipeline: lockstep run needs at least one lane")
	}
	if len(dst) != k || len(preds) != k || len(mems) != k {
		return fmt.Errorf("pipeline: lockstep lane mismatch: %d params, %d results, %d predictors, %d hierarchies",
			k, len(dst), len(preds), len(mems))
	}
	if src == nil {
		return fmt.Errorf("pipeline: lockstep run needs a source")
	}
	if n <= 0 {
		return fmt.Errorf("pipeline: instruction count %d must be positive", n)
	}
	for i := range ps {
		if err := ps[i].Validate(); err != nil {
			return fmt.Errorf("pipeline: lockstep lane %d: %w", i, err)
		}
	}
	if len(m.cores) < k {
		grown := make([]Core, k)
		copy(grown, m.cores) // keep the arenas lanes have already grown
		m.cores = grown
	}
	lanes := m.cores[:k]
	for i := range lanes {
		c := &lanes[i]
		c.intro = nil
		if m.introOn {
			c.intro = &m.intro
		}
		c.reset(ps[i], nil, preds[i], mems[i], n)
		c.blk = &m.blk // all lanes read the shared slab
	}

	// Slab loop: fill once, advance every lane across it. Lanes consume
	// whole slabs — a runSlab return without a refill request means the
	// lane committed its full budget — and every lane's budget is the
	// same n, so the lanes request refills at exactly the same
	// boundaries until the stream's last slab.
	delivered := 0
	for {
		want := batchSize
		if rem := n - delivered; rem < want {
			want = rem
		}
		got := 0
		if want > 0 {
			got = m.blk.Fill(src, want)
		}
		delivered += got
		running := false
		for i := range lanes {
			c := &lanes[i]
			c.batchPos, c.batchLen = 0, got
			c.delivered += uint64(got)
			if got == 0 {
				c.srcDone = true
			}
			more, err := c.runSlab()
			if err != nil {
				for j := range lanes {
					lanes[j].release()
				}
				return fmt.Errorf("pipeline: lockstep lane %d: %w", i, err)
			}
			if more {
				running = true
			}
		}
		if !running {
			break
		}
	}
	for i := range lanes {
		dst[i] = lanes[i].result()
		lanes[i].release()
	}
	return nil
}
