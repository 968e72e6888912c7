package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"xpscalar/internal/evalengine"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration // passes run until their summed wall time reaches this
	traced   bool          // report per-layer metrics instead of end-to-end ones
	size     size
	dir      string // scratch directory for disk tiers
	expect   string // digest recorded for this seed and size; "" if none
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's JSON line. Attempted counts the evaluation requests
// the measured passes made; every request of a pass that fails its output
// check counts as failed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digest    string
}

// samples are the per-pass measurements of one kind of pass.
type samples struct {
	wall, cpu, rss, gcFrac, analysis []float64
}

func (s *samples) add(wall, cpu time.Duration, rss, gc float64, analysis time.Duration) {
	s.wall = append(s.wall, wall.Seconds())
	s.cpu = append(s.cpu, cpu.Seconds())
	s.rss = append(s.rss, rss)
	s.gcFrac = append(s.gcFrac, gc/max(cpu.Seconds(), 1e-9))
	s.analysis = append(s.analysis, float64(analysis.Nanoseconds())/1e6)
}

// run sets the workload up, then runs whole passes until their wall time
// adds up to cfg.measure. An untraced run times untraced passes only; a
// traced run alternates untraced and traced passes, at least one of each,
// and derives the per-layer metrics from them. Every pass is checked
// outside its timed region.
func run(ctx context.Context, cfg runConfig, log io.Writer) (res result, err error) {
	b := &bench{cfg: cfg}
	defer func() { err = errors.Join(err, b.release()) }()

	setups := cfg.size.coldSetups
	if isWarm(cfg.workload) {
		setups = cfg.size.warmSetups
	}
	if cfg.traced {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := b.setUp(ctx); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var (
		plain, traced samples
		spans         spanAcc
		tiers         tierTimes
		last          evalengine.Stats
		first         string
		measured      time.Duration
	)
	for i := 0; i < 1 || measured < cfg.measure || (cfg.traced && i < 2); i++ {
		isTraced := cfg.traced && i%2 == 1
		if err := settle(); err != nil {
			fmt.Fprintf(log, "e2ebench: pass %d: %v; go.peak_rss_mb reads the process peak\n", i, err)
		}
		gc0 := gcCPUSeconds()
		cpu0, err := cpuTime()
		if err != nil {
			return result{}, err
		}
		start := time.Now()
		out, perr := b.pass(ctx, passMode{spans: isTraced, timeTier: isTraced})
		wall := time.Since(start)
		cpu1, err := cpuTime()
		if err != nil {
			return result{}, err
		}
		gc := gcCPUSeconds() - gc0
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		measured += wall

		var bad []string
		var st evalengine.Stats
		if perr != nil {
			bad = append(bad, perr.Error())
		}
		if out.sess != nil {
			st = out.sess.Stats()
			if perr == nil {
				bad = append(bad, b.check(out, st, first, i == 0)...)
			}
			if err := out.sess.Close(); err != nil {
				bad = append(bad, fmt.Sprintf("close session: %v", err))
			}
		}
		if first == "" {
			first, res.digest = out.digest, out.digest
		}
		requests := max(st.Requests, 1)
		res.Attempted += requests
		if len(bad) > 0 {
			res.Failed += requests
			for _, msg := range bad {
				fmt.Fprintf(log, "e2ebench: %s seed %d pass %d: %s\n", cfg.workload, cfg.seed, i, msg)
			}
		}
		last = st
		if isTraced {
			traced.add(wall, cpu1-cpu0, rss, gc, out.analysis)
			spans.add(out.rec.Spans())
			if out.tier != nil {
				tiers.merge(out.tier.snapshot())
			}
		} else {
			plain.add(wall, cpu1-cpu0, rss, gc, out.analysis)
		}
	}
	res.Correct = res.Failed == 0

	values := map[string]float64{
		"wall_s":  median(plain.wall),
		"cpu_s":   median(plain.cpu),
		"setup_s": median(setupS),
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		gen, err := generatorNsPerInstr(b.in.profiles, b.genBudget())
		if err != nil {
			return result{}, err
		}
		values = b.layerMetrics(layerInputs{
			plain: plain, traced: traced, spans: spans, tiers: tiers,
			last: last, genNsPerInstr: gen,
		})
		spans.writeShares(log)
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// median of xs; 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile of xs by linear interpolation between closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
