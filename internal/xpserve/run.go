// The job bodies: one function per job kind, each a thin orchestration of
// the same library layers the command-line tools call (explore, core,
// subsetting, store), evaluated on the scheduler's shared session under
// the job's recorder, whose spans narrate the job's event stream. Results
// are returned in the exact on-disk artifact formats (outcomes v1, matrix
// v1), so a client can save a response body and feed it straight to the
// analysis tools.

package xpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"xpscalar/internal/explore"
	"xpscalar/internal/power"
	"xpscalar/internal/session"
	"xpscalar/internal/sim"
	"xpscalar/internal/store"
	"xpscalar/internal/subsetting"
	"xpscalar/internal/tech"
	"xpscalar/internal/tracing"
	"xpscalar/internal/workload"
)

// profiles resolves the request's workload names (empty = whole suite).
// Each name may appear once: a matrix's rows are distinct workloads, and
// exploring one twice only repeats work. So a list is at most the suite.
func profiles(names []string) ([]workload.Profile, error) {
	if len(names) == 0 {
		return workload.Suite(), nil
	}
	var out []workload.Profile
	seen := map[string]bool{}
	for _, name := range names {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("xpserve: unknown workload %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("xpserve: workload %q listed twice", name)
		}
		seen[name] = true
		out = append(out, p)
	}
	return out, nil
}

// exploreOptions maps request knobs onto the annealer's options;
// zero-valued knobs keep the defaults (an empty objective is ipt).
func exploreOptions(req JobRequest) (explore.Options, error) {
	seed := int64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	opt := explore.DefaultOptions(seed)
	if req.Iterations > 0 {
		opt.Iterations = req.Iterations
	}
	if req.Chains > 0 {
		opt.Chains = req.Chains
	}
	if req.ShortBudget > 0 {
		opt.ShortBudget = req.ShortBudget
	}
	if req.LongBudget > 0 {
		opt.LongBudget = req.LongBudget
	}
	if req.NeighborhoodK > 0 {
		opt.NeighborhoodK = req.NeighborhoodK
	}
	if req.Objective != "" {
		obj, err := power.ParseObjective(req.Objective)
		if err != nil {
			return opt, err
		}
		opt.Objective = obj
	}
	return opt, opt.Validate()
}

// instructions returns the request's per-evaluation budget with a
// default.
func instructions(req JobRequest, def int) int {
	if req.Instructions > 0 {
		return req.Instructions
	}
	return def
}

// runExplore is the service form of cmd/xpscalar: anneal each requested
// workload (with the suite's cross-seeding round) and return the
// outcomes artifact.
func runExplore(ctx context.Context, sess *session.Session, req JobRequest) (json.RawMessage, error) {
	ps, err := profiles(req.Workloads)
	if err != nil {
		return nil, err
	}
	opt, err := exploreOptions(req)
	if err != nil {
		return nil, err
	}
	outs, err := sess.ExploreSuite(ctx, ps, opt)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.WriteOutcomes(&buf, outs); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// runMatrix is the service form of crossconf -source sim: explore the
// requested workloads, then simulate every workload on every customized
// configuration, returning the matrix artifact.
func runMatrix(ctx context.Context, sess *session.Session, req JobRequest) (json.RawMessage, error) {
	ps, err := profiles(req.Workloads)
	if err != nil {
		return nil, err
	}
	opt, err := exploreOptions(req)
	if err != nil {
		return nil, err
	}
	outs, err := sess.ExploreSuite(ctx, ps, opt)
	if err != nil {
		return nil, err
	}
	configs := make([]sim.Config, len(outs))
	for i, out := range outs {
		configs[i] = out.Best
	}
	m, err := sess.CrossMatrix(ctx, ps, configs, instructions(req, 60000), tech.Default())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.WriteMatrix(&buf, m); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// subsettingResult is the result document of a subsetting job: the
// suite's workloads partitioned into clusters by their normalized Kiviat
// characteristic vectors.
type subsettingResult struct {
	Format   string     `json:"format"`
	Names    []string   `json:"names"`
	Clusters [][]string `json:"clusters,omitempty"`
}

// runSubsetting is the service form of cmd/subsetting's clustering: it
// extracts microarchitecture-independent characteristics from the suite
// and k-means-clusters them (default k 4), returning the cluster
// membership. Each workload's extraction is one source span.
func runSubsetting(ctx context.Context, sess *session.Session, req JobRequest) (json.RawMessage, error) {
	ps := workload.Suite()
	n := instructions(req, 50000)
	k := req.KMeans
	if k <= 0 {
		k = 4
	}
	names := make([]string, len(ps))
	cs := make([]workload.Characteristics, len(ps))
	h := tracing.FromContext(ctx)
	for i, p := range ps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := h.Begin(tracing.KindSource, p.Name, int64(n))
		c, err := workload.Extract(p, n)
		h.End(sp)
		if err != nil {
			return nil, err
		}
		names[i] = p.Name
		cs[i] = c
	}
	// Kiviat axes are normalized across the whole set, so the feature
	// matrix is built only after every extraction is in.
	ks, err := subsetting.KiviatSet(cs)
	if err != nil {
		return nil, err
	}
	features := make([][]float64, len(ks))
	for i := range ks {
		features[i] = ks[i].Axes[:]
	}
	res, err := subsetting.KMeans(features, k, subsetting.NormMinMax)
	if err != nil {
		return nil, err
	}
	doc := subsettingResult{Format: "xpscalar-subsets-v1", Names: names}
	for _, set := range subsetting.ClusterSets(res.Assign, k) {
		var members []string
		for _, i := range set {
			members = append(members, names[i])
		}
		doc.Clusters = append(doc.Clusters, members)
	}
	_ = sess // characteristics extraction is engine-independent today
	return json.Marshal(doc)
}
