package tech

import (
	"math"
	"testing"
)

func TestDefaultMatchesPaperTable2(t *testing.T) {
	p := Default()
	if p.MemoryLatencyNs != 50 {
		t.Errorf("memory latency = %v, want 50 (Table 2)", p.MemoryLatencyNs)
	}
	if p.FrontEndLatencyNs != 2 {
		t.Errorf("front-end latency = %v, want 2 (Table 2)", p.FrontEndLatencyNs)
	}
	if p.IQEntryBytes != 8 {
		t.Errorf("IQ entry width = %v, want 8 bytes / 64 bits (Table 2)", p.IQEntryBytes)
	}
	if p.LatchLatencyNs != 0.03 {
		t.Errorf("latch latency = %v, want 0.03 (Table 2)", p.LatchLatencyNs)
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default().Validate() = %v", err)
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero memory latency", func(p *Params) { p.MemoryLatencyNs = 0 }},
		{"negative front end", func(p *Params) { p.FrontEndLatencyNs = -1 }},
		{"zero IQ entry", func(p *Params) { p.IQEntryBytes = 0 }},
		{"zero latch", func(p *Params) { p.LatchLatencyNs = 0 }},
		{"zero fo4", func(p *Params) { p.FO4Ns = 0 }},
		{"zero wire", func(p *Params) { p.WireNsPerMm = 0 }},
		{"zero bit area", func(p *Params) { p.BitAreaMm2 = 0 }},
		{"NaN memory latency", func(p *Params) { p.MemoryLatencyNs = math.NaN() }},
		{"NaN front end", func(p *Params) { p.FrontEndLatencyNs = math.NaN() }},
		{"Inf front end", func(p *Params) { p.FrontEndLatencyNs = math.Inf(1) }},
		{"NaN latch", func(p *Params) { p.LatchLatencyNs = math.NaN() }},
		{"NaN fo4", func(p *Params) { p.FO4Ns = math.NaN() }},
		{"Inf wire", func(p *Params) { p.WireNsPerMm = math.Inf(1) }},
		{"Inf bit area", func(p *Params) { p.BitAreaMm2 = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate() accepted invalid params %+v", p)
			}
		})
	}
}

func TestMinClockPeriodPositive(t *testing.T) {
	p := Default()
	if mp := p.MinClockPeriodNs(); mp <= p.LatchLatencyNs {
		t.Errorf("MinClockPeriodNs() = %v, must exceed latch latency %v", mp, p.LatchLatencyNs)
	}
}

func TestScaleShrinksLogicNotDRAM(t *testing.T) {
	p := Default()
	s := p.Scale(0.7)
	if s.MemoryLatencyNs != p.MemoryLatencyNs {
		t.Errorf("Scale changed memory latency: %v -> %v", p.MemoryLatencyNs, s.MemoryLatencyNs)
	}
	if s.FO4Ns >= p.FO4Ns {
		t.Errorf("Scale(0.7) did not shrink FO4: %v -> %v", p.FO4Ns, s.FO4Ns)
	}
	if s.LatchLatencyNs >= p.LatchLatencyNs {
		t.Errorf("Scale(0.7) did not shrink latch: %v -> %v", p.LatchLatencyNs, s.LatchLatencyNs)
	}
	if s.BitAreaMm2 >= p.BitAreaMm2 {
		t.Errorf("Scale(0.7) did not shrink bit area: %v -> %v", p.BitAreaMm2, s.BitAreaMm2)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled params invalid: %v", err)
	}
}
