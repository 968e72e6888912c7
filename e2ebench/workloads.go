package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"slices"
	"time"

	"xpscalar/internal/core"
	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalremote"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/explore"
	"xpscalar/internal/power"
	"xpscalar/internal/session"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// The workloads. Why each was chosen, and the layer it loads, is recorded
// in BENCHMARK.json and LAYERS.md.
const (
	exploreCold       = "explore-cold"
	matrixCold        = "matrix-cold"
	exploreWarmDisk   = "explore-warm-disk"
	exploreWarmRemote = "explore-warm-remote"
)

var workloadNames = []string{exploreCold, matrixCold, exploreWarmDisk, exploreWarmRemote}

func isWorkload(name string) bool { return slices.Contains(workloadNames, name) }

func isWarm(name string) bool { return name == exploreWarmDisk || name == exploreWarmRemote }

// size scales the workloads. fullSize is what the benchmark measures; the
// tests run the same code at a tiny size.
type size struct {
	profiles    int // leading suite profiles used
	iterations  int // annealing steps per chain
	short, long int // annealing instruction budgets
	matrixInstr int // instructions per matrix cell
	// coldSetups and warmSetups are the set-ups an untraced run makes;
	// setup_s is their median. A warm set-up is a whole cold exploration,
	// so it is repeated less.
	coldSetups, warmSetups int
}

// fullSize is the reduced Table 4 of the probe the benchmark was designed
// from: 11 suite profiles, 120 iterations, 2 chains, 12k/40k budgets, and
// 400k instructions per Table 5 cell.
var fullSize = size{
	profiles: 11, iterations: 120, short: 12000, long: 40000,
	matrixInstr: 400000, coldSetups: 3, warmSetups: 1,
}

// inputs is everything a workload hands the program, generated from the
// benchmark seed.
type inputs struct {
	profiles []workload.Profile
	opt      explore.Options // Engine unset: sessions install their own
	configs  []sim.Config    // the matrix's architectures, one per profile
	tech     tech.Params
}

// matrixPoolSeed fixes the draw of matrix configurations. A fresh
// explore.RandomConfigs draw per seed changes which cache and window sizes
// are simulated, and with them the kernel's cost and memory. Dealing one
// fixed draw to the profiles in a seed-chosen order changes every diagonal
// cell, the matrix and its analysis, and keeps the set of 121 cells, and so
// the work, the same for every seed.
const matrixPoolSeed = 2008

func makeInputs(seed int64, sz size) (inputs, error) {
	t := tech.Default()
	opt := explore.DefaultOptions(derive(seed, 1))
	opt.Iterations, opt.Chains = sz.iterations, 2
	opt.ShortBudget, opt.LongBudget = sz.short, sz.long
	profiles := workload.Suite()[:sz.profiles]
	pool := explore.RandomConfigs(len(profiles), matrixPoolSeed, t)
	if len(pool) != len(profiles) {
		return inputs{}, fmt.Errorf("generated %d distinct configurations, want %d", len(pool), len(profiles))
	}
	configs := make([]sim.Config, len(pool))
	for i, j := range rand.New(rand.NewSource(derive(seed, 2))).Perm(len(pool)) {
		configs[i] = pool[j]
	}
	return inputs{profiles: profiles, opt: opt, configs: configs, tech: t}, nil
}

// derive maps the benchmark seed to an independent seed per use (splitmix64
// finalizer). explore.Suite offsets per-workload seeds by small multiples,
// so neighbouring benchmark seeds must not map to neighbouring seeds.
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// bench is one workload instance: its inputs and the warm tier its last
// set-up left behind.
type bench struct {
	cfg runConfig
	in  inputs

	storeDir   string // explore-warm-disk: the filled evalstore
	peer       *peer  // explore-warm-remote: the filled peer
	coldDigest string // digest of the warm workloads' set-up exploration
	setupStats evalengine.Stats
	setupTier  tierTimes // traced runs: disk-tier calls of the set-up fill
}

// setUp generates the inputs and prepares everything the timed passes
// need. The cold workloads have nothing to prepare, so their set-up is a
// short warm-up on a throwaway session; it lets lazy process set-up (heap
// growth, first-touch page faults) finish before timing.
func (b *bench) setUp(ctx context.Context) error {
	in, err := makeInputs(b.cfg.seed, b.cfg.size)
	if err != nil {
		return err
	}
	b.in = in
	switch b.cfg.workload {
	case exploreCold:
		opt := in.opt
		opt.Iterations = max(1, opt.Iterations/20)
		s := session.New(session.Options{})
		_, err := s.ExploreSuite(ctx, in.profiles, opt)
		return errors.Join(err, s.Close())
	case matrixCold:
		s := session.New(session.Options{})
		_, err := s.CrossMatrix(ctx, in.profiles, in.configs, max(1000, b.cfg.size.matrixInstr/20), in.tech)
		return errors.Join(err, s.Close())
	case exploreWarmDisk:
		return b.fillStore(ctx)
	default:
		return b.fillPeer(ctx)
	}
}

// fillStore runs the cold exploration over a fresh disk tier and keeps it
// for the passes; the write path (write-behind Put, fsync and rename) is
// paid here, in set-up.
func (b *bench) fillStore(ctx context.Context) error {
	dir, err := os.MkdirTemp(b.cfg.dir, "store-")
	if err != nil {
		return err
	}
	st, err := evalstore.Open(dir)
	if err != nil {
		return errors.Join(err, os.RemoveAll(dir))
	}
	var tier evalengine.CacheBackend = st
	var tt *timedTier
	if b.cfg.traced {
		tt = newTimedTier(st)
		tier = tt
	}
	s := session.New(session.Options{Engine: evalengine.Options{Backend: tier}})
	outs, err := s.ExploreSuite(ctx, b.in.profiles, b.in.opt)
	if err == nil {
		err = s.Flush()
	}
	stats := s.Stats()
	if err = errors.Join(err, s.Close()); err != nil {
		return fmt.Errorf("fill disk tier: %w", errors.Join(err, os.RemoveAll(dir)))
	}
	if b.storeDir != "" {
		if err := os.RemoveAll(b.storeDir); err != nil {
			return err
		}
	}
	b.storeDir, b.coldDigest, b.setupStats = dir, exploreDigest(outs), stats
	if tt != nil {
		b.setupTier = tt.snapshot()
	}
	return nil
}

// fillPeer runs the cold exploration on a memory-only session and serves
// that session's engine as a remote cache peer on loopback.
func (b *bench) fillPeer(ctx context.Context) error {
	s := session.New(session.Options{})
	outs, err := s.ExploreSuite(ctx, b.in.profiles, b.in.opt)
	if err != nil {
		return fmt.Errorf("fill remote peer: %w", errors.Join(err, s.Close()))
	}
	stats := s.Stats()
	p, err := servePeer(s)
	if err != nil {
		return errors.Join(err, s.Close())
	}
	if b.peer != nil {
		if err := b.peer.stop(); err != nil {
			return errors.Join(err, p.stop())
		}
	}
	b.peer, b.coldDigest, b.setupStats = p, exploreDigest(outs), stats
	return nil
}

// release stops the peer and removes the disk tier.
func (b *bench) release() error {
	var err error
	if b.peer != nil {
		err = b.peer.stop()
		b.peer = nil
	}
	if b.storeDir != "" {
		err = errors.Join(err, os.RemoveAll(b.storeDir))
		b.storeDir = ""
	}
	return err
}

// peer is a remote cache tier served on loopback from a session's engine,
// the way a fleet member serves its memory tier to the others.
type peer struct {
	sess *session.Session
	srv  *http.Server
	url  string
	done chan error
}

func servePeer(s *session.Session) (*peer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("remote peer: %w", err)
	}
	mux := http.NewServeMux()
	evalremote.Register(mux, evalremote.EngineSource{Engine: s.Engine()}, nil)
	p := &peer{sess: s, srv: &http.Server{Handler: mux}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

// stop shuts the server down, waits for its serve loop to return, and
// closes the peer's session.
func (p *peer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, p.sess.Close())
}

// passMode selects the instrumentation of one pass: a span recorder on the
// session, and the timing decorator around the cache tier.
type passMode struct {
	spans, timeTier bool
}

// passOut is what one pass leaves for the output check and the per-layer
// metrics. The caller closes sess once it has checked it.
type passOut struct {
	sess     *session.Session
	digest   string
	matrix   *core.Matrix
	analysis time.Duration // matrix-cold: BestCombination and GreedySurrogates
	rec      *tracing.Recorder
	tier     *timedTier
}

// pass runs the workload's timed work once, on a fresh session.
func (b *bench) pass(ctx context.Context, mode passMode) (passOut, error) {
	var out passOut
	if mode.spans {
		out.rec = tracing.NewRecorder()
	}
	var tier evalengine.CacheBackend
	switch b.cfg.workload {
	case exploreWarmDisk:
		st, err := evalstore.Open(b.storeDir)
		if err != nil {
			return out, err
		}
		tier = st
	case exploreWarmRemote:
		cl, err := evalremote.NewClient([]string{b.peer.url}, evalremote.Options{})
		if err != nil {
			return out, err
		}
		tier = cl
	}
	if tier != nil && mode.timeTier {
		out.tier = newTimedTier(tier)
		tier = out.tier
	}
	out.sess = session.New(session.Options{Engine: evalengine.Options{Backend: tier}, Recorder: out.rec})

	if b.cfg.workload == matrixCold {
		m, err := out.sess.CrossMatrix(ctx, b.in.profiles, b.in.configs, b.cfg.size.matrixInstr, b.in.tech)
		if err != nil {
			return out, err
		}
		start := time.Now()
		a, err := analyse(m)
		out.analysis = time.Since(start)
		if err != nil {
			return out, err
		}
		out.matrix, out.digest = m, matrixDigest(m, a)
		return out, nil
	}
	outs, err := out.sess.ExploreSuite(ctx, b.in.profiles, b.in.opt)
	if err != nil {
		return out, err
	}
	out.digest = exploreDigest(outs)
	return out, nil
}

// check is the output check of one pass, made outside the timed region.
// It returns what is wrong; first is the digest of the run's first pass
// ("" on the first pass itself), and the matrix diagonal is re-simulated
// only when diagonal is set, since that costs a tenth of a pass.
func (b *bench) check(out passOut, st evalengine.Stats, first string, diagonal bool) []string {
	var bad []string
	if st.Requests != st.Hits+st.Deduped+st.DiskHits+st.Misses {
		bad = append(bad, fmt.Sprintf("requests %d != memory hits %d + dedup %d + tier hits %d + sims %d",
			st.Requests, st.Hits, st.Deduped, st.DiskHits, st.Misses))
	}
	if b.cfg.expect != "" && out.digest != b.cfg.expect {
		bad = append(bad, fmt.Sprintf("digest %s, recorded for this seed %s", out.digest, b.cfg.expect))
	}
	if first != "" && out.digest != first {
		bad = append(bad, fmt.Sprintf("digest %s, first pass %s", out.digest, first))
	}
	if isWarm(b.cfg.workload) {
		if out.digest != b.coldDigest {
			bad = append(bad, fmt.Sprintf("digest %s, set-up cold digest %s", out.digest, b.coldDigest))
		}
		if st.Misses != 0 {
			bad = append(bad, fmt.Sprintf("%d simulations on a warm tier", st.Misses))
		}
	}
	if diagonal && out.matrix != nil {
		bad = append(bad, b.checkDiagonal(out)...)
	}
	return bad
}

// checkDiagonal re-simulates every diagonal cell with a direct sim.Run and
// compares it bit for bit with the matrix and the engine's memoized result.
func (b *bench) checkDiagonal(out passOut) []string {
	var bad []string
	n := b.cfg.size.matrixInstr
	for i, p := range b.in.profiles {
		want, err := sim.Run(b.in.configs[i], p, n, b.in.tech)
		if err != nil {
			bad = append(bad, fmt.Sprintf("diagonal cell %s: %v", p.Name, err))
			continue
		}
		got, ok := out.sess.Engine().Peek(evalengine.KeyOf(b.in.configs[i], p, n, b.in.tech, power.ObjIPT))
		if !ok || !reflect.DeepEqual(got.Result, want) ||
			math.Float64bits(out.matrix.IPT[i][i]) != math.Float64bits(want.IPT()) {
			bad = append(bad, fmt.Sprintf("diagonal cell %s differs from a direct sim.Run", p.Name))
		}
	}
	return bad
}

// analysis is the Table 6 and surrogate step run on a matrix.
type analysis struct {
	combos     []core.Combination
	surrogates [][]core.Assignment
}

func analyse(m *core.Matrix) (analysis, error) {
	var a analysis
	for k := 1; k <= min(4, m.N()); k++ {
		for _, metric := range []core.Metric{core.MetricAvg, core.MetricHar, core.MetricCWHar} {
			c, err := m.BestCombination(k, metric, nil)
			if err != nil {
				return a, err
			}
			a.combos = append(a.combos, c)
		}
	}
	for _, pol := range []core.Policy{core.PolicyNoPropagation, core.PolicyForwardPropagation, core.PolicyFullPropagation} {
		g, err := core.GreedySurrogates(m, pol, nil)
		if err != nil {
			return a, err
		}
		a.surrogates = append(a.surrogates, g.Assignments())
	}
	return a, nil
}

// exploreDigest hashes the outcomes of an exploration: each workload's
// chosen configuration and the exact bits of its score.
func exploreDigest(outs []explore.Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%s|%+v|%x|%x|%d\n", o.Workload, o.Best,
			math.Float64bits(o.BestIPT), math.Float64bits(o.BestScore), o.Evaluations)
	}
	return sum(h)
}

// matrixDigest hashes the exact bits of every matrix cell and the
// analysis run on it.
func matrixDigest(m *core.Matrix, a analysis) string {
	h := sha256.New()
	for w, row := range m.IPT {
		fmt.Fprint(h, m.Names[w])
		for _, v := range row {
			fmt.Fprintf(h, " %x", math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
	for _, c := range a.combos {
		fmt.Fprintf(h, "%v %x %x %x\n", c.Archs, math.Float64bits(c.Merit), math.Float64bits(c.AvgIPT), math.Float64bits(c.HarIPT))
	}
	for _, as := range a.surrogates {
		for _, x := range as {
			fmt.Fprintf(h, "%d:%d:%x ", x.Workload, x.Arch, math.Float64bits(x.IPT))
		}
		fmt.Fprintln(h)
	}
	return sum(h)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
