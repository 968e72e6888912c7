// Package power estimates the die area and power of a configuration and
// scores configurations under combined performance/power/area objectives —
// the extension the paper explicitly proposes (§3: "Extending the tool to
// conduct exploration based on a metric that represents some combination of
// performance, power and die area should not be exceptionally difficult").
//
// Area and per-access energy come from the same array model the timing fit
// uses; dynamic power is activity-based, driven by the event counts the
// pipeline model already collects, plus clock-tree and latch power
// proportional to pipeline depth and width; static power is proportional to
// area.
package power

import (
	"fmt"

	"xpscalar/internal/cacti"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
)

// Estimate is the static (configuration-only) part of the model: area and
// per-access energies of each major structure.
type Estimate struct {
	AreaMm2 float64

	// Per-access energies in nanojoules.
	IQAccessNJ  float64
	ROBAccessNJ float64
	LSQAccessNJ float64
	L1AccessNJ  float64
	L2AccessNJ  float64

	// Per-cycle overheads in nanojoules: clock distribution, latches and
	// control, scaling with width and the deepest pipe.
	ClockTreeNJ float64

	// StaticWatts is leakage, proportional to area.
	StaticWatts float64
}

// leakage and clock constants, calibrated to land desktop-class cores of
// this era in the 10-60W envelope.
const (
	leakageWattsPerMm2 = 0.08
	clockNJPerWidth    = 0.035
	feNJPerInstr       = 0.06 // fetch/decode/rename energy per instruction
	aluNJPerInstr      = 0.04
)

// EstimateConfig computes area and access energies for a configuration.
func EstimateConfig(c sim.Config, t tech.Params) (Estimate, error) {
	if err := t.Validate(); err != nil {
		return Estimate{}, err
	}
	var e Estimate

	iqWake, err := cacti.Access(cacti.Params{
		LineBytes: t.IQEntryBytes, Sets: 2 * c.IQSize, ReadPorts: c.Width,
		FullyAssoc: true, TagBits: 8,
	}, t)
	if err != nil {
		return Estimate{}, fmt.Errorf("power: IQ: %w", err)
	}
	rob, err := cacti.Access(cacti.Params{
		LineBytes: t.IQEntryBytes, Assoc: 1, Sets: c.ROBSize,
		ReadPorts: 2 * c.Width, WritePorts: c.Width,
	}, t)
	if err != nil {
		return Estimate{}, fmt.Errorf("power: ROB: %w", err)
	}
	lsq, err := cacti.Access(cacti.Params{
		LineBytes: t.IQEntryBytes, Sets: c.LSQSize, ReadPorts: 2, WritePorts: 2,
		FullyAssoc: true,
	}, t)
	if err != nil {
		return Estimate{}, fmt.Errorf("power: LSQ: %w", err)
	}
	l1, err := cacti.Access(cacti.Params{
		LineBytes: c.L1D.BlockBytes, Assoc: c.L1D.Assoc, Sets: c.L1D.Sets,
		ReadPorts: 2, WritePorts: 2,
	}, t)
	if err != nil {
		return Estimate{}, fmt.Errorf("power: L1: %w", err)
	}
	l2, err := cacti.Access(cacti.Params{
		LineBytes: c.L2.BlockBytes, Assoc: c.L2.Assoc, Sets: c.L2.Sets,
		ReadPorts: 2, WritePorts: 2,
	}, t)
	if err != nil {
		return Estimate{}, fmt.Errorf("power: L2: %w", err)
	}

	e.IQAccessNJ = iqWake.EnergyNJ
	e.ROBAccessNJ = rob.EnergyNJ
	e.LSQAccessNJ = lsq.EnergyNJ
	e.L1AccessNJ = l1.EnergyNJ
	e.L2AccessNJ = l2.EnergyNJ

	// Core logic area: roughly proportional to width² (bypass networks)
	// plus the arrays.
	logicArea := 0.6 + 0.12*float64(c.Width*c.Width)
	e.AreaMm2 = logicArea + iqWake.AreaMm2 + rob.AreaMm2 + lsq.AreaMm2 + l1.AreaMm2 + l2.AreaMm2

	depth := c.FrontEndStages + c.SchedDepth + c.LSQDepth
	e.ClockTreeNJ = clockNJPerWidth * float64(c.Width) * (1 + 0.04*float64(depth))
	e.StaticWatts = leakageWattsPerMm2 * e.AreaMm2
	return e, nil
}

// Report is the dynamic outcome of running a workload on a configuration.
type Report struct {
	Estimate
	DynamicWatts float64
	TotalWatts   float64
	// EnergyNJPerInstr is total energy divided by committed instructions.
	EnergyNJPerInstr float64
	// IPT is carried through for objective computation.
	IPT float64
}

// EDP returns the energy-delay product per instruction (nJ·ns): energy per
// instruction times time per instruction. Lower is better.
func (r Report) EDP() float64 {
	if r.IPT == 0 {
		return 0
	}
	return r.EnergyNJPerInstr / r.IPT
}

// ED2P returns the energy-delay² product per instruction (nJ·ns²).
func (r Report) ED2P() float64 {
	if r.IPT == 0 {
		return 0
	}
	return r.EnergyNJPerInstr / (r.IPT * r.IPT)
}

// Evaluate combines a configuration estimate with a simulation result into
// power and energy figures.
func Evaluate(res sim.Result, t tech.Params) (Report, error) {
	est, err := EstimateConfig(res.Config, t)
	if err != nil {
		return Report{}, err
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		return Report{}, fmt.Errorf("power: empty simulation result")
	}

	instr := float64(res.Instructions)
	cycles := float64(res.Cycles)

	// Activity model: every instruction is fetched/decoded/renamed, is
	// written to and read from the ROB, and searches the wakeup CAM once
	// at issue; memory operations search the LSQ and access the caches.
	dynNJ := instr * (feNJPerInstr + aluNJPerInstr + est.ROBAccessNJ*2 + est.IQAccessNJ)
	memOps := float64(res.L1.Accesses)
	dynNJ += memOps * (est.LSQAccessNJ + est.L1AccessNJ)
	dynNJ += float64(res.L2.Accesses) * est.L2AccessNJ
	dynNJ += cycles * est.ClockTreeNJ

	timeNs := cycles * res.Config.ClockNs
	rep := Report{
		Estimate:         est,
		DynamicWatts:     dynNJ / timeNs, // nJ/ns = W
		EnergyNJPerInstr: (dynNJ + est.StaticWatts*timeNs) / instr,
		IPT:              res.IPT(),
	}
	rep.TotalWatts = rep.DynamicWatts + est.StaticWatts
	return rep, nil
}

// Objective scores a configuration+workload outcome for exploration.
type Objective int

const (
	// ObjIPT maximizes raw performance (the paper's default).
	ObjIPT Objective = iota
	// ObjIPTPerWatt maximizes energy efficiency.
	ObjIPTPerWatt
	// ObjInverseEDP maximizes 1/EDP — the classic balanced objective.
	ObjInverseEDP
	// ObjInverseED2P maximizes 1/ED²P — performance-leaning efficiency.
	ObjInverseED2P
)

func (o Objective) String() string {
	switch o {
	case ObjIPT:
		return "ipt"
	case ObjIPTPerWatt:
		return "ipt-per-watt"
	case ObjInverseEDP:
		return "1/edp"
	case ObjInverseED2P:
		return "1/ed2p"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective maps an objective's name, as xpscalar's -objective flag
// and xpserved's requests spell it, to the Objective.
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "ipt":
		return ObjIPT, nil
	case "ipt-per-watt":
		return ObjIPTPerWatt, nil
	case "edp":
		return ObjInverseEDP, nil
	case "ed2p":
		return ObjInverseED2P, nil
	default:
		return ObjIPT, fmt.Errorf("power: unknown objective %q (want ipt, ipt-per-watt, edp or ed2p)", name)
	}
}

// Score evaluates the objective for a simulation result; higher is better
// for every objective.
func Score(res sim.Result, obj Objective, t tech.Params) (float64, error) {
	if obj == ObjIPT {
		return res.IPT(), nil
	}
	rep, err := Evaluate(res, t)
	if err != nil {
		return 0, err
	}
	switch obj {
	case ObjIPTPerWatt:
		if rep.TotalWatts == 0 {
			return 0, nil
		}
		return rep.IPT / rep.TotalWatts, nil
	case ObjInverseEDP:
		if edp := rep.EDP(); edp > 0 {
			return 1 / edp, nil
		}
		return 0, nil
	case ObjInverseED2P:
		if ed2p := rep.ED2P(); ed2p > 0 {
			return 1 / ed2p, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("power: unknown objective %v", obj)
	}
}
