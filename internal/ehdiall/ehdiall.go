// Package ehdiall reimplements the EH-DIALL program of Terwilliger &
// Ott used by the paper to evaluate haplotypes: an
// expectation-maximization estimator of multi-locus haplotype
// frequencies from unphased genotype data.
//
// Given k selected biallelic SNPs, an individual's genotype pattern
// determines its haplotype pair up to phase: every heterozygous site
// doubles the number of compatible pairs. The EM algorithm iterates
// between distributing each individual over its compatible pairs in
// proportion to current haplotype frequencies (E-step) and
// re-estimating frequencies from expected counts (M-step), assuming
// Hardy-Weinberg pairing. Likelihoods are computed with allelic
// association (hypothesis H1, the EM solution) and without (hypothesis
// H0, products of single-site allele frequencies), exactly as EH-DIALL
// reports them. The EM iterations are accelerated with SQUAREM
// (Varadhan & Roland 2008): squared extrapolation along the last two
// EM steps, kept only when it does not lose likelihood.
//
// The per-individual phase expansion is 2^(heterozygous sites) and the
// haplotype table is 2^k, which is the genuine source of the paper's
// Figure 4: evaluation cost grows exponentially with haplotype size.
package ehdiall

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/genotype"
	"repro/internal/stats"
)

// MaxSNPs bounds the number of SNPs per estimation; the haplotype
// table is 2^k entries, so larger values are refused rather than
// exhausting memory.
const MaxSNPs = 20

// Config tunes the EM iteration. The zero value selects defaults.
type Config struct {
	// Tol is the convergence threshold on the L1 change of the
	// frequency vector across one E+M map evaluation (default 1e-9).
	Tol float64
	// MaxIter bounds the E+M map evaluations of the accelerated EM,
	// extrapolation-stabilising ones included (default 500).
	MaxIter int
}

func (c Config) withDefaults() Config {
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 500
	}
	return c
}

// Result is the outcome of one EH-DIALL estimation over k SNPs.
type Result struct {
	// K is the number of SNPs in the haplotype.
	K int
	// N is the number of complete-case individuals used.
	N int
	// Freqs has 2^K maximum-likelihood haplotype frequencies under
	// H1 (allelic association). Haplotype h has bit i set when the
	// i-th selected SNP carries allele 2.
	Freqs []float64
	// NullFreqs has the 2^K product-of-allele-frequency haplotype
	// frequencies under H0 (no association).
	NullFreqs []float64
	// LogLik and NullLogLik are the sample log-likelihoods under the
	// two hypotheses.
	LogLik     float64
	NullLogLik float64
	// Iterations is the number of E+M map evaluations performed;
	// Converged reports whether one of them, within MaxIter, moved
	// the frequencies by less than Tol — Freqs is then that
	// evaluation's output.
	Iterations int
	Converged  bool
}

// LRT returns the likelihood-ratio test statistic 2(LL1 - LL0). It is
// non-negative because the EM starts from the H0 frequencies, plain EM
// steps never decrease the likelihood, and an extrapolated point is
// kept only if its likelihood reaches the safeguard's baseline, which
// starts at LL0.
func (r *Result) LRT() float64 {
	v := 2 * (r.LogLik - r.NullLogLik)
	if v < 0 {
		return 0 // numerical guard; ascent guarantees v >= -epsilon
	}
	return v
}

// DF returns the degrees of freedom of the LRT: 2^K - 1 free haplotype
// frequencies minus K free allele frequencies.
func (r *Result) DF() int { return (1 << r.K) - 1 - r.K }

// PValue returns the asymptotic chi-square p-value of the LRT.
func (r *Result) PValue() float64 {
	df := r.DF()
	if df <= 0 {
		return 1
	}
	return stats.ChiSquareSurvival(r.LRT(), df)
}

// ExpectedCounts returns the estimated haplotype counts Freqs * 2N,
// the quantities the paper concatenates into CLUMP's contingency
// table.
func (r *Result) ExpectedCounts() []float64 {
	return r.ExpectedCountsInto(nil)
}

// ExpectedCountsInto is ExpectedCounts writing into dst (grown as
// needed), for callers on the allocation-free evaluation path.
func (r *Result) ExpectedCountsInto(dst []float64) []float64 {
	if cap(dst) < len(r.Freqs) {
		dst = make([]float64, len(r.Freqs))
	}
	dst = dst[:len(r.Freqs)]
	for i, f := range r.Freqs {
		dst[i] = f * 2 * float64(r.N)
	}
	return dst
}

// patternGroup is a distinct genotype pattern with its multiplicity.
type patternGroup struct {
	base  uint32 // haplotype bits fixed by homozygous-2 sites
	hets  uint32 // bitmask of heterozygous sites
	count float64
}

// ErrNoData is returned when no complete-case individual is available.
var ErrNoData = errors.New("ehdiall: no complete-case individuals")

// Estimate runs the EM on the given complete genotype patterns, each
// of length k with values 0, 1, 2 (no missing entries; use
// genotype.Dataset.ColumnPatterns to obtain complete cases).
func Estimate(patterns [][]genotype.Genotype, k int, cfg Config) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ehdiall: k = %d, need at least 1 SNP", k)
	}
	if k > MaxSNPs {
		return nil, fmt.Errorf("ehdiall: k = %d exceeds MaxSNPs = %d", k, MaxSNPs)
	}
	cfg = cfg.withDefaults()

	groups, n, err := groupPatterns(patterns, k)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, ErrNoData
	}

	return estimateCore(groups, n, k, groupMarginals(groups, n, k), cfg, &Scratch{}), nil
}

// groupMarginals returns the H0 marginal allele-2 frequencies of the
// grouped patterns. The per-site accumulators only ever add whole
// numbers, so the sums are exact integers below 2^53 and the division
// matches the packed path's integer-tally division bit for bit.
func groupMarginals(groups []patternGroup, n, k int) []float64 {
	p2 := make([]float64, k)
	for _, g := range groups {
		for j := 0; j < k; j++ {
			bit := uint32(1) << j
			switch {
			case g.base&bit != 0:
				p2[j] += 2 * g.count
			case g.hets&bit != 0:
				p2[j] += g.count
			}
		}
	}
	for j := range p2 {
		p2[j] /= 2 * float64(n)
	}
	return p2
}

// estimateCore is the single copy of the estimation arithmetic shared
// by the byte path (Estimate) and the packed path (EstimatePacked):
// H0 product frequencies, null log-likelihood, the accelerated EM
// ascent and the H1 log-likelihood. Both front-ends produce identical
// groups in identical order and identical p2 marginals, so sharing
// this code is what makes their Results bit-identical. The Result and
// its slices alias scr's storage and stay valid only until its next
// use.
//
// The ascent is SQUAREM (Varadhan & Roland 2008, scheme SqS3) over the
// EM map F. One cycle from the current point x evaluates x1 = F(x) and
// x2 = F(x1), takes r = x1-x and v = x2-x1-r, and extrapolates
// xp = x - 2αr + α²v with α = -‖r‖/‖v‖ clamped to [-stepMax, -1]
// (α = -1 gives xp = x2, a plain EM step). A negative xp is rejected;
// otherwise xp is renormalised and stabilised by x3 = F(xp), which is
// accepted only if LL(xp) — taken from that E-step's own pattern
// probabilities — is at least the baseline: NullLogLik at first, then
// the LL(xp) of the last accepted cycle. A rejection discards x3 and
// continues from x2. Plain EM steps never lose likelihood and an
// accepted x3 has at least LL(xp), so no point the ascent moves to
// falls below H0: LL1 >= LL0 holds by construction. stepMax starts at
// 1, grows fourfold after an accepted step that hit it and shrinks
// fourfold (floor 1) after a rejection. Every map evaluation counts
// against MaxIter, and the ascent stops at the first kept evaluation
// that moves the frequencies by less than Tol (L1), returning its
// output — exactly the plain EM's convergence test.
func estimateCore(groups []patternGroup, n, k int, p2 []float64, cfg Config, scr *Scratch) *Result {
	size := 1 << k
	scr.res = Result{K: k, N: n}
	res := &scr.res
	scr.nullFreqs = growFloats(scr.nullFreqs, size)
	for i := range scr.em {
		scr.em[i] = growFloats(scr.em[i], size)
	}
	scr.prod = growFloats(scr.prod, size/2)
	nullFreqs, prod := scr.nullFreqs, scr.prod
	x, x1, x2, xp := scr.em[0], scr.em[1], scr.em[2], scr.em[3]

	// H0: product of single-site allele-2 frequencies.
	for h := 0; h < size; h++ {
		f := 1.0
		for j := 0; j < k; j++ {
			if h&(1<<j) != 0 {
				f *= p2[j]
			} else {
				f *= 1 - p2[j]
			}
		}
		nullFreqs[h] = f
	}
	res.NullFreqs = nullFreqs
	res.NullLogLik = logLik(groups, nullFreqs, prod)

	copy(x, nullFreqs)
	baseline, stepMax := res.NullLogLik, 1.0
	for res.Iterations < cfg.MaxIter {
		res.Iterations++
		if d, _ := emMap(groups, n, x, x1, prod, false); d < cfg.Tol || res.Iterations == cfg.MaxIter {
			res.Converged = d < cfg.Tol
			x, x1 = x1, x
			break
		}
		res.Iterations++
		if d, _ := emMap(groups, n, x1, x2, prod, false); d < cfg.Tol || res.Iterations == cfg.MaxIter {
			res.Converged = d < cfg.Tol
			x, x2 = x2, x
			break
		}
		alpha, ok := extrapolate(x, x1, x2, xp, stepMax)
		if !ok {
			x, x2 = x2, x
			stepMax = math.Max(1, stepMax/4)
			continue
		}
		// Stabilise: x3 = F(xp) goes to x1, which is free again.
		res.Iterations++
		d, ll := emMap(groups, n, xp, x1, prod, true)
		if ll < baseline {
			x, x2 = x2, x
			stepMax = math.Max(1, stepMax/4)
			continue
		}
		baseline = ll
		if alpha == -stepMax {
			stepMax *= 4
		}
		x, x1 = x1, x
		if d < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Freqs = x
	res.LogLik = logLik(groups, x, prod)
	return res
}

// emMap applies the EM map once: the E-step distributes every group
// over its phase pairs under the frequencies in, and the M-step
// writes the re-estimated frequencies to out. It returns their L1
// distance from in and, with wantLL, the log-likelihood of in, summed
// from the E-step's own pattern probabilities exactly as logLik sums
// them.
func emMap(groups []patternGroup, n int, in, out, prod []float64, wantLL bool) (delta, ll float64) {
	for i := range out {
		out[i] = 0
	}
	for _, g := range groups {
		p := expectStep(g, in, out, prod)
		if wantLL {
			ll += groupLogLik(g, p)
		}
	}
	inv := 1 / (2 * float64(n))
	for i, c := range out {
		out[i] = c * inv
		delta += math.Abs(out[i] - in[i])
	}
	return delta, ll
}

// extrapolate writes the SQUAREM point xp = x - 2αr + α²v of one cycle
// (x1 = F(x), x2 = F(x1), r = x1-x, v = x2-x1-r), with the SqS3 step
// α = -‖r‖/‖v‖ clamped to [-stepMax, -1], renormalised to sum to one.
// It returns α, and false when an entry of xp is negative.
func extrapolate(x, x1, x2, xp []float64, stepMax float64) (alpha float64, ok bool) {
	var rr, vv float64
	for i := range x {
		r := x1[i] - x[i]
		v := x2[i] - x1[i] - r
		rr += r * r
		vv += v * v
	}
	alpha = -stepMax
	if vv > 0 {
		alpha = math.Max(-stepMax, math.Min(-1, -math.Sqrt(rr/vv)))
	}
	sum := 0.0
	for i := range x {
		r := x1[i] - x[i]
		v := x2[i] - x1[i] - r
		p := x[i] - 2*alpha*r + alpha*alpha*v
		if p < 0 {
			return alpha, false
		}
		xp[i] = p
		sum += p
	}
	inv := 1 / sum
	for i := range xp {
		xp[i] *= inv
	}
	return alpha, true
}

// growFloats resizes buf to n entries, reusing its storage when it
// fits. Contents are unspecified; callers overwrite every entry.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// EstimateDataset is a convenience wrapper: it extracts complete-case
// patterns for the given individual rows at the given sorted SNP
// sites, then runs Estimate.
func EstimateDataset(d *genotype.Dataset, rows []int, sites []int, cfg Config) (*Result, error) {
	pats := d.ColumnPatterns(rows, sites)
	return Estimate(pats, len(sites), cfg)
}

func groupPatterns(patterns [][]genotype.Genotype, k int) ([]patternGroup, int, error) {
	type key struct{ base, hets uint32 }
	idx := make(map[key]int)
	var groups []patternGroup
	n := 0
	for pi, pat := range patterns {
		if len(pat) != k {
			return nil, 0, fmt.Errorf("ehdiall: pattern %d has length %d, want %d", pi, len(pat), k)
		}
		var base, hets uint32
		for j, g := range pat {
			switch g {
			case 0:
			case 1:
				hets |= 1 << j
			case 2:
				base |= 1 << j
			default:
				return nil, 0, fmt.Errorf("ehdiall: pattern %d has invalid genotype %d at site %d", pi, g, j)
			}
		}
		n++
		kk := key{base, hets}
		if gi, ok := idx[kk]; ok {
			groups[gi].count++
			continue
		}
		idx[kk] = len(groups)
		groups = append(groups, patternGroup{base: base, hets: hets, count: 1})
	}
	return groups, n, nil
}

// Phase pairs. A pattern with m > 0 heterozygous sites is compatible
// with 2^(m-1) unordered haplotype pairs {base|s, base|(hets^s)}.
// Exactly one end of each pair lacks the top heterozygous bit, so
// walking the subsets s of lowHets(hets) from the largest down to 0
// visits every unordered pair once, with the top-less end first. A
// homozygous pattern (hets == 0) walks its single pair {base, base}.
// Every pair loop in this package uses this walk and this order.

// lowHets returns hets without its highest set bit (0 for hets == 0).
func lowHets(hets uint32) uint32 {
	return hets &^ (1 << bits.Len32(hets) >> 1)
}

// pairProducts writes f(h1)*f(h2) for each unordered compatible pair
// of g's pattern into prod, in walk order, and returns their sum and
// count. prod must hold 2^(m-1) entries for m heterozygous sites.
func pairProducts(g patternGroup, f, prod []float64) (sum float64, n int) {
	low := lowHets(g.hets)
	for s := low; ; s = (s - 1) & low {
		p := f[g.base|s] * f[g.base|(g.hets^s)]
		prod[n] = p
		sum += p
		n++
		if s == 0 {
			return sum, n
		}
	}
}

// patternProb returns the HWE probability of the genotype pattern
// under haplotype frequencies f: f(h)^2 for a homozygous pattern,
// otherwise twice the sum of f(h1)*f(h2) over the unordered compatible
// pairs (the HWE 2*f1*f2 factor of a heterozygous pair). prod is
// pairProducts' buffer.
func patternProb(g patternGroup, f, prod []float64) float64 {
	if g.hets == 0 {
		v := f[g.base]
		return v * v
	}
	sum, _ := pairProducts(g, f, prod)
	return 2 * sum
}

// expectStep adds the pattern group's expected haplotype copy counts
// to counts, given current frequencies: each unordered pair receives
// count * f(h1)*f(h2) / sum on both ends, so the group adds 2*count
// in total. It returns the pattern's probability under f, bit for bit
// patternProb's value. prod is pairProducts' buffer.
func expectStep(g patternGroup, f, counts, prod []float64) float64 {
	if g.hets == 0 {
		counts[g.base] += 2 * g.count
		v := f[g.base]
		return v * v
	}
	total, n := pairProducts(g, f, prod)
	p := 2 * total
	if total <= 0 {
		// All compatible pairs currently have zero frequency; spread
		// uniformly so the EM can recover (matches EH behaviour on
		// empty cells).
		for i := range prod[:n] {
			prod[i] = 1
		}
		total = float64(n)
	}
	scale := g.count / total
	low := lowHets(g.hets)
	i := 0
	for s := low; ; s = (s - 1) & low {
		w := prod[i] * scale
		counts[g.base|s] += w
		counts[g.base|(g.hets^s)] += w
		i++
		if s == 0 {
			return p
		}
	}
}

// logLik returns the sample log-likelihood of the grouped patterns
// under haplotype frequencies f.
func logLik(groups []patternGroup, f, prod []float64) float64 {
	ll := 0.0
	for _, g := range groups {
		ll += groupLogLik(g, patternProb(g, f, prod))
	}
	return ll
}

// groupLogLik is a pattern group's log-likelihood term given its
// pattern probability p. A zero-probability pattern contributes a
// large negative penalty instead of -Inf so that comparisons stay
// ordered.
func groupLogLik(g patternGroup, p float64) float64 {
	if p <= 0 {
		return g.count * -745 // ~log of smallest positive float64
	}
	return g.count * math.Log(p)
}
