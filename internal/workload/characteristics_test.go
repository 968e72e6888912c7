package workload

import "testing"

func TestExtractBasics(t *testing.T) {
	p, _ := ByName("gzip")
	c, err := Extract(p, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "gzip" {
		t.Errorf("name = %q", c.Name)
	}
	if c.Instructions != 50000 {
		t.Errorf("instructions = %d", c.Instructions)
	}
	if c.WorkingSetBlocks <= 0 {
		t.Error("working set must be positive")
	}
	if c.BranchPredictability <= 0.5 || c.BranchPredictability > 1 {
		t.Errorf("branch predictability %.3f outside (0.5, 1]", c.BranchPredictability)
	}
	if c.LoadFrac <= 0 || c.BranchFrac <= 0 {
		t.Error("mix fractions must be positive")
	}
	if len(c.Vector()) != 7 {
		t.Errorf("vector length %d, want 7, one per characteristic", len(c.Vector()))
	}
}

func TestExtractRejectsBadArgs(t *testing.T) {
	p, _ := ByName("gzip")
	if _, err := Extract(p, 0); err == nil {
		t.Error("Extract(0) should fail")
	}
	if _, err := Extract(Profile{}, 100); err == nil {
		t.Error("Extract of invalid profile should fail")
	}
}

func TestExtractDeterministic(t *testing.T) {
	p, _ := ByName("twolf")
	a, err := Extract(p, 20000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(p, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Extract not deterministic: %+v vs %+v", a, b)
	}
}

func TestWorkingSetOrderingAcrossSuite(t *testing.T) {
	// mcf's measured footprint must dwarf crafty's, matching the
	// profiles' intent (paper §1.1 discussion and Table 4 outcomes).
	const n = 120000
	mcf, err := Extract(mustProfile(t, "mcf"), n)
	if err != nil {
		t.Fatal(err)
	}
	crafty, err := Extract(mustProfile(t, "crafty"), n)
	if err != nil {
		t.Fatal(err)
	}
	if mcf.WorkingSetBlocks < 4*crafty.WorkingSetBlocks {
		t.Errorf("mcf working set (%d blocks) should dwarf crafty's (%d)",
			mcf.WorkingSetBlocks, crafty.WorkingSetBlocks)
	}
}

func TestPredictabilityOrderingAcrossSuite(t *testing.T) {
	// vortex/crafty are calibrated highly predictable; twolf/vpr hard.
	const n = 80000
	vals := map[string]float64{}
	for _, name := range []string{"vortex", "crafty", "twolf", "vpr"} {
		c, err := Extract(mustProfile(t, name), n)
		if err != nil {
			t.Fatal(err)
		}
		vals[name] = c.BranchPredictability
	}
	if vals["vortex"] <= vals["twolf"] || vals["crafty"] <= vals["vpr"] {
		t.Errorf("predictability ordering wrong: %v", vals)
	}
}

func TestBzipGzipRawSimilarity(t *testing.T) {
	// The premise of the paper's §5.3 case study: bzip and gzip look
	// similar in raw mix terms (loads/branches within a couple percent)
	// even though their best configurations differ sharply.
	const n = 80000
	bzip, err := Extract(mustProfile(t, "bzip"), n)
	if err != nil {
		t.Fatal(err)
	}
	gzip, err := Extract(mustProfile(t, "gzip"), n)
	if err != nil {
		t.Fatal(err)
	}
	if d := bzip.LoadFrac - gzip.LoadFrac; d > 0.03 || d < -0.03 {
		t.Errorf("bzip/gzip load fractions differ by %.3f, want close", d)
	}
	if d := bzip.BranchFrac - gzip.BranchFrac; d > 0.03 || d < -0.03 {
		t.Errorf("bzip/gzip branch fractions differ by %.3f, want close", d)
	}
}

func TestIllustrativeCharacteristicsShape(t *testing.T) {
	// Figure 1's shape: α and β differ essentially only in working set;
	// γ additionally has higher predictability and lower chain density.
	ps := IllustrativeProfiles()
	const n = 60000
	var cs []Characteristics
	for _, p := range ps {
		c, err := Extract(p, n)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	alpha, beta, gamma := cs[0], cs[1], cs[2]
	if beta.WorkingSetBlocks < 3*alpha.WorkingSetBlocks {
		t.Errorf("β working set (%d) should be much larger than α (%d)", beta.WorkingSetBlocks, alpha.WorkingSetBlocks)
	}
	if gamma.BranchPredictability <= alpha.BranchPredictability {
		t.Errorf("γ predictability %.3f should exceed α %.3f", gamma.BranchPredictability, alpha.BranchPredictability)
	}
	if gamma.DepChainDensity >= alpha.DepChainDensity {
		t.Errorf("γ chain density %.3f should be below α %.3f", gamma.DepChainDensity, alpha.DepChainDensity)
	}
	// α and β similar on the non-memory axes.
	if d := alpha.BranchPredictability - beta.BranchPredictability; d > 0.05 || d < -0.05 {
		t.Errorf("α/β predictability differ by %.3f, want close", d)
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return p
}

func BenchmarkExtract(b *testing.B) {
	p, _ := ByName("gcc")
	for i := 0; i < b.N; i++ {
		if _, err := Extract(p, 20000); err != nil {
			b.Fatal(err)
		}
	}
}
