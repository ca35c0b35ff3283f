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
// probability and again for the weights. It is kept as a test oracle:
// one step of it for the production E+M map, which may only change
// rounding, and plain EM iterated over it for the accelerated ascent.

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

// tightLogLik continues plain EM from freqs — the E+M map iterated,
// no extrapolation — until a step moves the frequencies by less than
// 1e-14 or for 20,000 steps, and returns the log-likelihood reached:
// the near-exact optimum both methods are logged against.
func tightLogLik(groups []patternGroup, n int, freqs []float64) float64 {
	x, y := slices.Clone(freqs), make([]float64, len(freqs))
	prod := make([]float64, len(freqs)/2)
	for it := 0; it < 20000; it++ {
		d, _ := emMap(groups, n, x, y, prod, false)
		x, y = y, x
		if d < 1e-14 {
			break
		}
	}
	return logLik(groups, x, prod)
}

// refNullFreqs is estimateCore's H0 table computed independently: the
// product of the grouped patterns' single-site allele frequencies.
func refNullFreqs(groups []patternGroup, n, k int) []float64 {
	p2 := groupMarginals(groups, n, k)
	null := make([]float64, 1<<k)
	for h := range null {
		f := 1.0
		for j := 0; j < k; j++ {
			if h&(1<<j) != 0 {
				f *= p2[j]
			} else {
				f *= 1 - p2[j]
			}
		}
		null[h] = f
	}
	return null
}

// TestEstimateCoreMatchesOrderedReference holds the SQUAREM ascent to
// the plain EM it accelerates: refEstimateCore, the ordered-pair E+M
// map iterated from H0 at the same Tol and MaxIter. An accelerated EM
// takes a different path to the maximum, so iteration counts and the
// low bits of the estimates differ by design; the contract is
//
//  1. every fit is a valid EM fit (checkValidFit), finite
//     frequencies included;
//  2. on every well-conditioned fit (refSensitivity, below) the
//     likelihood is no lower than plain EM's, LogLik >= ref.LogLik -
//     1e-9*max(1, |ref.LogLik|), and the H0 side — NullFreqs and
//     NullLogLik, which the ascent must not touch — is bit-equal to an
//     independent computation of it;
//  3. in aggregate, at most half the reference's map evaluations and
//     no more non-converged fits.
//
// A fit on which the reference amplifies a 1e-13 perturbation of its
// start beyond 1e-9 is ill-conditioned: it starts on a saddle of the
// likelihood and rounding decides which fixed point plain EM reaches,
// so only (1) applies there. The test logs, against plain EM run to
// Tol = 1e-14, how many ill-conditioned fits moved and how many fits
// each method leaves more than 1e-6 below that tight optimum.
func TestEstimateCoreMatchesOrderedReference(t *testing.T) {
	cfg := Config{}.withDefaults()
	jitter := rand.New(rand.NewSource(1))
	var fits, ill, illMoved, illLower, gotIters, refIters, gotStuck, refStuck, gotBelow, refBelow int
	worstGain := math.Inf(1)
	check := func(tag string, pats [][]genotype.Genotype, k int) {
		t.Helper()
		groups, n, err := groupPatterns(pats, k)
		if err != nil {
			t.Fatal(err)
		}
		got := estimateCore(groups, n, k, groupMarginals(groups, n, k), cfg, &Scratch{})
		null := refNullFreqs(groups, n, k)
		want := refEstimateCore(groups, n, null, cfg)
		fits++
		gotIters += got.Iterations
		refIters += want.Iterations
		if !got.Converged {
			gotStuck++
		}
		if !want.Converged {
			refStuck++
		}
		checkValidFit(t, tag, groups, n, got, cfg)
		mle := tightLogLik(groups, n, want.Freqs)
		if got.LogLik < mle-1e-6 {
			gotBelow++
		}
		if want.LogLik < mle-1e-6 {
			refBelow++
		}

		llScale := math.Max(1, math.Abs(want.LogLik))
		if refSensitivity(groups, n, null, want.Iterations, jitter) > 1e-9 {
			ill++
			if math.Abs(got.LogLik-want.LogLik) > 1e-9*llScale {
				illMoved++
				if got.LogLik < want.LogLik {
					illLower++
				}
			}
			return
		}
		if got.LogLik < want.LogLik-1e-9*llScale {
			t.Fatalf("%s k=%d n=%d: LogLik %v below plain EM's %v (iterations %d/%v, reference %d/%v)",
				tag, k, n, got.LogLik, want.LogLik, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		worstGain = math.Min(worstGain, (got.LogLik-want.LogLik)/llScale)
		if ll0 := logLik(groups, null, make([]float64, len(null)/2)); got.NullLogLik != ll0 {
			t.Fatalf("%s k=%d n=%d: NullLogLik %v, reference %v", tag, k, n, got.NullLogLik, ll0)
		}
		for h := range null {
			if got.NullFreqs[h] != null[h] {
				t.Fatalf("%s k=%d n=%d: NullFreqs[%d] = %v, reference %v", tag, k, n, h, got.NullFreqs[h], null[h])
			}
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
	t.Logf("%d fits: %d map evaluations (plain EM %d), %d non-converged (plain EM %d)",
		fits, gotIters, refIters, gotStuck, refStuck)
	t.Logf("%d well-conditioned: smallest (LogLik - plain EM)/max(1,|LogLik|) = %.3g", fits-ill, worstGain)
	t.Logf("%d ill-conditioned: %d reached another fixed point, %d of them at lower likelihood", ill, illMoved, illLower)
	t.Logf("more than 1e-6 below plain EM at Tol=1e-14: %d fits (plain EM at default Tol: %d)", gotBelow, refBelow)
	if 2*gotIters > refIters {
		t.Errorf("%d map evaluations, more than half of plain EM's %d", gotIters, refIters)
	}
	if gotStuck > refStuck {
		t.Errorf("%d non-converged fits, plain EM has %d", gotStuck, refStuck)
	}
}

// checkValidFit requires res to be a legitimate EM result on groups:
// LL1 >= LL0, finite non-negative frequencies summing to one and, when
// converged, a point that one more reference iteration moves by less
// than 10*Tol.
func checkValidFit(t *testing.T, tag string, groups []patternGroup, n int, res *Result, cfg Config) {
	t.Helper()
	if res.LogLik < res.NullLogLik-1e-9*math.Max(1, math.Abs(res.LogLik)) {
		t.Fatalf("%s k=%d: LL1 %v below LL0 %v", tag, res.K, res.LogLik, res.NullLogLik)
	}
	sum := 0.0
	for h, f := range res.Freqs {
		if !(f >= 0) || math.IsInf(f, 0) {
			t.Fatalf("%s k=%d: Freqs[%d] = %v", tag, res.K, h, f)
		}
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

// TestEMMapMatchesReferenceStep applies the production E+M map once
// from random frequency vectors — normalised, with exact zeros, and
// all-zero to reach expectStep's total <= 0 fallback — and requires
// every entry to match one reference iteration (refStep) within 1e-15,
// and the log-likelihood the map reports for its input to be logLik's
// bit for bit.
func TestEMMapMatchesReferenceStep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(8)
		groups, n, err := groupPatterns(randomPatterns(rng, 1+rng.Intn(200), k, -1), k)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]float64, 1<<k)
		if trial%3 != 0 {
			sum := 0.0
			for h := range in {
				if trial%3 == 1 || rng.Intn(3) > 0 {
					in[h] = rng.Float64()
					sum += in[h]
				}
			}
			for h := range in {
				if sum > 0 {
					in[h] /= sum
				}
			}
		}
		out, prod := make([]float64, len(in)), make([]float64, len(in)/2)
		_, ll := emMap(groups, n, in, out, prod, true)
		want := slices.Clone(in)
		refStep(groups, n, want, make([]float64, len(in)))
		for h := range want {
			if math.Abs(out[h]-want[h]) > 1e-15 {
				t.Fatalf("trial %d k=%d: F(x)[%d] = %v, reference %v", trial, k, h, out[h], want[h])
			}
		}
		if wantLL := logLik(groups, in, prod); ll != wantLL {
			t.Fatalf("trial %d k=%d: map log-likelihood %v, logLik %v", trial, k, ll, wantLL)
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
