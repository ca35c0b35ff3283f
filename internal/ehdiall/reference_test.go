package ehdiall

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genotype"
	"repro/internal/popgen"
)

// The reference EM below is the ordered-pair E-step the estimator used
// before the unordered pair walk: every compatible pair is visited in
// both orders and each product is computed once for the pattern
// probability and again for the weights. It is kept as a test oracle
// for the rewrite, which may only change rounding.

func refPatternProb(g patternGroup, f []float64) float64 {
	if g.hets == 0 {
		v := f[g.base]
		return v * v
	}
	p := 0.0
	s := g.hets
	for {
		p += f[g.base|s] * f[g.base|(g.hets^s)]
		if s == 0 {
			break
		}
		s = (s - 1) & g.hets
	}
	return p
}

func refExpectStep(g patternGroup, f, counts []float64) {
	if g.hets == 0 {
		counts[g.base] += 2 * g.count
		return
	}
	total := refPatternProb(g, f)
	if total <= 0 {
		pairs := float64(uint32(1) << bits.OnesCount32(g.hets))
		w := g.count / pairs
		s := g.hets
		for {
			counts[g.base|s] += w
			counts[g.base|(g.hets^s)] += w
			if s == 0 {
				break
			}
			s = (s - 1) & g.hets
		}
		return
	}
	s := g.hets
	for {
		w := g.count * f[g.base|s] * f[g.base|(g.hets^s)] / total
		counts[g.base|s] += w
		counts[g.base|(g.hets^s)] += w
		if s == 0 {
			break
		}
		s = (s - 1) & g.hets
	}
}

func refLogLik(groups []patternGroup, f []float64) float64 {
	ll := 0.0
	for _, g := range groups {
		p := refPatternProb(g, f)
		if p <= 0 {
			ll += g.count * -745
			continue
		}
		ll += g.count * math.Log(p)
	}
	return ll
}

// refStep runs one reference EM iteration in place: E-step into
// counts, M-step back into freqs. It returns the L1 change of freqs.
func refStep(groups []patternGroup, n int, freqs, counts []float64) float64 {
	for i := range counts {
		counts[i] = 0
	}
	for _, g := range groups {
		refExpectStep(g, freqs, counts)
	}
	delta := 0.0
	inv := 1 / (2 * float64(n))
	for i := range freqs {
		nf := counts[i] * inv
		delta += math.Abs(nf - freqs[i])
		freqs[i] = nf
	}
	return delta
}

// refEstimateCore is estimateCore's EM ascent and likelihoods over the
// reference E-step, from the H0 point null.
func refEstimateCore(groups []patternGroup, n int, null []float64, cfg Config) *Result {
	res := &Result{NullFreqs: null, NullLogLik: refLogLik(groups, null)}
	freqs := slices.Clone(null)
	counts := make([]float64, len(null))
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		res.Iterations = iter
		if refStep(groups, n, freqs, counts) < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Freqs = freqs
	res.LogLik = refLogLik(groups, freqs)
	return res
}

// refSensitivity measures how far the reference EM amplifies rounding
// noise on one fit: it runs the reference from the H0 start and from
// the H0 start with every frequency jittered by a relative 1e-13, for
// iters iterations, and returns the largest L1 distance between the
// two trajectories. A well-conditioned fit keeps the distance near the
// jitter. A fit that starts on a saddle of the likelihood (typical of
// few individuals over many sites) amplifies it exponentially, and
// which maximum it reaches is decided by rounding.
func refSensitivity(groups []patternGroup, n int, null []float64, iters int, rng *rand.Rand) float64 {
	a, b := slices.Clone(null), slices.Clone(null)
	for h := range b {
		b[h] *= 1 + 1e-13*(rng.Float64()-0.5)
	}
	counts := make([]float64, len(null))
	worst := 0.0
	for it := 0; it < iters; it++ {
		refStep(groups, n, a, counts)
		refStep(groups, n, b, counts)
		d := 0.0
		for h := range a {
			d += math.Abs(a[h] - b[h])
		}
		worst = math.Max(worst, d)
	}
	return worst
}

// randomPatterns draws n complete patterns over k sites. hetSites caps
// the heterozygous sites per pattern (-1: no cap).
func randomPatterns(rng *rand.Rand, n, k, hetSites int) [][]genotype.Genotype {
	pats := make([][]genotype.Genotype, n)
	for i := range pats {
		pat := make([]genotype.Genotype, k)
		hets := 0
		for j := range pat {
			g := genotype.Genotype(rng.Intn(3))
			if g == 1 && hetSites >= 0 && hets >= hetSites {
				g = 2 * genotype.Genotype(rng.Intn(2))
			}
			if g == 1 {
				hets++
			}
			pat[j] = g
		}
		pats[i] = pat
	}
	return pats
}

// TestEstimateCoreMatchesOrderedReference pins the unordered pair walk
// to the ordered-pair reference EM. On every well-conditioned fit the
// rewrite may only change rounding: the same iteration count and
// convergence flag, |ΔLRT| <= 1e-9*max(1, LRT), |ΔFreqs| <= 1e-12 and
// |ΔLogLik|, |ΔNullLogLik| <= 1e-9*max(1, |LogLik|). A fit on which the
// reference itself amplifies a 1e-13 perturbation of its start beyond
// 1e-9 (refSensitivity) is ill-conditioned: any change of rounding may
// send it to another fixed point, so there the rewrite must only
// return a valid EM fit — no likelihood loss against H0, frequencies
// summing to one and, when converged, a fixed point of the reference
// iteration.
func TestEstimateCoreMatchesOrderedReference(t *testing.T) {
	cfg := Config{}.withDefaults()
	jitter := rand.New(rand.NewSource(1))
	var maxLRT, maxFreq, maxLL float64
	var fits, ill, illMoved, illLower int
	check := func(tag string, pats [][]genotype.Genotype, k int) {
		t.Helper()
		groups, n, err := groupPatterns(pats, k)
		if err != nil {
			t.Fatal(err)
		}
		got := estimateCore(groups, n, k, groupMarginals(groups, n, k), cfg, nil)
		want := refEstimateCore(groups, n, got.NullFreqs, cfg)
		fits++
		llScale := math.Max(1, math.Abs(want.LogLik))
		if refSensitivity(groups, n, want.NullFreqs, want.Iterations, jitter) > 1e-9 {
			ill++
			checkValidFit(t, tag, groups, n, got, cfg)
			if got.Iterations != want.Iterations || math.Abs(got.LogLik-want.LogLik) > 1e-9*llScale {
				illMoved++
				if got.LogLik < want.LogLik {
					illLower++
				}
			}
			return
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("%s k=%d n=%d: EM trajectory %d/%v, reference %d/%v",
				tag, k, n, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		dLRT := math.Abs(got.LRT() - want.LRT())
		if dLRT > 1e-9*math.Max(1, want.LRT()) {
			t.Fatalf("%s k=%d n=%d: LRT %v, reference %v", tag, k, n, got.LRT(), want.LRT())
		}
		maxLRT = math.Max(maxLRT, dLRT/math.Max(1, want.LRT()))
		for _, d := range []float64{got.LogLik - want.LogLik, got.NullLogLik - want.NullLogLik} {
			if math.Abs(d) > 1e-9*llScale {
				t.Fatalf("%s k=%d n=%d: log-likelihoods (%v, %v), reference (%v, %v)",
					tag, k, n, got.LogLik, got.NullLogLik, want.LogLik, want.NullLogLik)
			}
			maxLL = math.Max(maxLL, math.Abs(d)/llScale)
		}
		for h := range want.Freqs {
			d := math.Abs(got.Freqs[h] - want.Freqs[h])
			if d > 1e-12 {
				t.Fatalf("%s k=%d n=%d: Freqs[%d] = %v, reference %v", tag, k, n, h, got.Freqs[h], want.Freqs[h])
			}
			maxFreq = math.Max(maxFreq, d)
		}
	}

	rng := rand.New(rand.NewSource(13))
	for k := 1; k <= 8; k++ {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(200)
			check("random", randomPatterns(rng, n, k, -1), k)
			check("homozygous", randomPatterns(rng, n, k, 0), k)
			check("one-het", randomPatterns(rng, n, k, 1), k)
		}
	}

	d, err := popgen.Generate(popgen.Paper51(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []genotype.Status{genotype.Affected, genotype.Unaffected} {
		rows := d.ByStatus(st)
		for k := 1; k <= 8; k++ {
			for trial := 0; trial < 12; trial++ {
				sites := rng.Perm(d.NumSNPs())[:k]
				slices.Sort(sites)
				check("paper51", d.ColumnPatterns(rows, sites), k)
			}
		}
	}
	t.Logf("%d fits, %d well-conditioned: max |ΔLRT|/max(1,LRT) = %.3g, max |ΔFreqs| = %.3g, max |ΔLogLik|/max(1,|LogLik|) = %.3g",
		fits, fits-ill, maxLRT, maxFreq, maxLL)
	t.Logf("%d ill-conditioned: %d reached another fixed point, %d of them at lower likelihood", ill, illMoved, illLower)
}

// checkValidFit requires res to be a legitimate EM result on groups:
// LL1 >= LL0, frequencies summing to one and, when converged, a point
// that one more reference iteration moves by less than 10*Tol.
func checkValidFit(t *testing.T, tag string, groups []patternGroup, n int, res *Result, cfg Config) {
	t.Helper()
	if res.LogLik < res.NullLogLik-1e-9*math.Max(1, math.Abs(res.LogLik)) {
		t.Fatalf("%s k=%d: LL1 %v below LL0 %v", tag, res.K, res.LogLik, res.NullLogLik)
	}
	sum := 0.0
	for _, f := range res.Freqs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("%s k=%d: frequencies sum to %v", tag, res.K, sum)
	}
	if res.Converged {
		freqs := slices.Clone(res.Freqs)
		if d := refStep(groups, n, freqs, make([]float64, len(freqs))); d >= 10*cfg.Tol {
			t.Fatalf("%s k=%d: converged fit moves by %v under the reference iteration", tag, res.K, d)
		}
	}
}

// TestExpectStepMassBalance checks that one group's E-step adds
// exactly 2*count haplotype copies, and that the zero-probability
// fallback spreads them uniformly: count/2^(m-1) to each of the 2^m
// compatible haplotypes and nothing elsewhere.
func TestExpectStepMassBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(8)
		size := 1 << k
		var base, hets uint32
		for j := 0; j < k; j++ {
			switch rng.Intn(3) {
			case 1:
				hets |= 1 << j
			case 2:
				base |= 1 << j
			}
		}
		g := patternGroup{base: base, hets: hets, count: float64(1 + rng.Intn(50))}
		f := make([]float64, size)
		zero := trial%4 == 0
		if !zero {
			for h := range f {
				if rng.Intn(4) > 0 {
					f[h] = rng.Float64()
				}
			}
		}
		counts := make([]float64, size)
		expectStep(g, f, counts, make([]float64, size/2))
		sum := 0.0
		for _, c := range counts {
			sum += c
		}
		if math.Abs(sum-2*g.count) > 1e-12 {
			t.Fatalf("base %b hets %b: E-step added %v copies, want %v", base, hets, sum, 2*g.count)
		}
		if !zero || hets == 0 {
			continue
		}
		m := bits.OnesCount32(hets)
		want := g.count / float64(uint32(1)<<(m-1))
		for h, c := range counts {
			compatible := uint32(h)&^hets == base
			switch {
			case compatible && c != want:
				t.Fatalf("fallback: haplotype %b got %v, want %v", h, c, want)
			case !compatible && c != 0:
				t.Fatalf("fallback: incompatible haplotype %b got %v", h, c)
			}
		}
	}
}
