// Package tech defines the microarchitecture-independent,
// technology-dependent parameters of a design point.
//
// The paper (Table 2) identifies three such parameters as influential on the
// customized configurations — memory access latency, front-end latency, and
// the bit-width of issue-queue entries — plus the latch latency, which
// bounds the useful work per pipeline stage. These values couple otherwise
// independent architectural units through the unified clock period, which is
// the paper's central argument for configurational characterization.
package tech

import (
	"fmt"
	"math"
)

// Params is a full technology parameter set. All latencies are in
// nanoseconds. The zero value is not useful; start from Default.
type Params struct {
	// MemoryLatencyNs is the time to access main memory: the latency of a
	// load that misses in all cache levels (Table 2: 50ns).
	MemoryLatencyNs float64

	// FrontEndLatencyNs is the time for an instruction to be retrieved,
	// decoded and renamed — the extra branch misprediction penalty beyond
	// the pipeline refill (Table 2: 2ns).
	FrontEndLatencyNs float64

	// IQEntryBytes is the width of an issue-queue entry. CACTI-style
	// models are inaccurate below 8 bytes, so the paper fixes entries at
	// that lower bound (Table 2: 64 bits).
	IQEntryBytes int

	// LatchLatencyNs is the flip-flop overhead charged once per pipeline
	// stage; it bounds the minimum feasible clock period and determines
	// the optimum pipeline depth of each subcomponent (Table 2: 0.03ns).
	LatchLatencyNs float64

	// FO4Ns is the delay of one fanout-of-4 inverter in this technology,
	// the basic unit from which the array model builds its delays. The
	// default corresponds roughly to a 65–90nm node, consistent with the
	// 1.7–5.2GHz customized clock range the paper reports.
	FO4Ns float64

	// WireNsPerMm is the repeated-wire delay per millimetre, used by the
	// array model for wordline/bitline and broadcast wiring.
	WireNsPerMm float64

	// BitAreaMm2 is the area of one SRAM bit cell in mm², used to convert
	// capacities into wire distances.
	BitAreaMm2 float64
}

// Default returns the technology assumed throughout the paper's evaluation
// (Table 2), with array-model constants calibrated so that representative
// sizings of the superscalar subcomponents land at access latencies
// comparable to the paper's Table 4 configurations.
func Default() Params {
	return Params{
		MemoryLatencyNs:   50,
		FrontEndLatencyNs: 2,
		IQEntryBytes:      8,
		LatchLatencyNs:    0.03,
		FO4Ns:             0.009,
		WireNsPerMm:       0.20,
		BitAreaMm2:        1.0e-6,
	}
}

// Validate reports whether the parameter set is physically meaningful.
// Every latency, delay and area must be finite: a NaN would slip past the
// sign checks and never compare equal to itself.
func (p Params) Validate() error {
	switch {
	case !finite(p.MemoryLatencyNs) || p.MemoryLatencyNs <= 0:
		return fmt.Errorf("tech: memory latency %vns must be positive and finite", p.MemoryLatencyNs)
	case !finite(p.FrontEndLatencyNs) || p.FrontEndLatencyNs < 0:
		return fmt.Errorf("tech: front-end latency %vns must be non-negative and finite", p.FrontEndLatencyNs)
	case p.IQEntryBytes <= 0:
		return fmt.Errorf("tech: IQ entry width %dB must be positive", p.IQEntryBytes)
	case !finite(p.LatchLatencyNs) || p.LatchLatencyNs <= 0:
		return fmt.Errorf("tech: latch latency %vns must be positive and finite", p.LatchLatencyNs)
	case !finite(p.FO4Ns) || p.FO4Ns <= 0:
		return fmt.Errorf("tech: FO4 delay %vns must be positive and finite", p.FO4Ns)
	case !finite(p.WireNsPerMm) || p.WireNsPerMm <= 0:
		return fmt.Errorf("tech: wire delay %vns/mm must be positive and finite", p.WireNsPerMm)
	case !finite(p.BitAreaMm2) || p.BitAreaMm2 <= 0:
		return fmt.Errorf("tech: bit area %vmm² must be positive and finite", p.BitAreaMm2)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MinClockPeriodNs is the smallest clock period at which a stage can do any
// useful work: one latch overhead plus a handful of gate delays.
func (p Params) MinClockPeriodNs() float64 {
	return p.LatchLatencyNs + 4*p.FO4Ns
}

// Scale returns the parameter set scaled to a different process generation.
// factor < 1 shrinks delays (a faster technology); memory latency, set by
// DRAM rather than logic, is left unchanged, which mirrors the growing
// processor–memory gap across generations.
func (p Params) Scale(factor float64) Params {
	s := p
	s.FrontEndLatencyNs *= factor
	s.LatchLatencyNs *= factor
	s.FO4Ns *= factor
	s.WireNsPerMm *= factor
	s.BitAreaMm2 *= factor * factor
	return s
}
