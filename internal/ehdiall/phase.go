package ehdiall

import (
	"fmt"

	"repro/internal/genotype"
)

// PhasedPair is the maximum-posterior haplotype pair assignment of one
// genotype pattern under estimated haplotype frequencies. Haplotypes
// are bitmasks over the estimation's K sites with H1 <= H2
// numerically.
type PhasedPair struct {
	H1, H2 uint32
	// Posterior is the probability of this pair among all pairs
	// compatible with the pattern, under the Result's frequencies.
	Posterior float64
}

// Phase resolves each pattern to its most likely haplotype pair under
// the fitted frequencies — the per-individual output the original EH
// tool chain reported alongside the frequency table. Patterns must
// have length K and no missing values.
func (r *Result) Phase(patterns [][]genotype.Genotype) ([]PhasedPair, error) {
	if r.Freqs == nil {
		return nil, fmt.Errorf("ehdiall: Phase requires a completed estimation")
	}
	out := make([]PhasedPair, len(patterns))
	for i, pat := range patterns {
		if len(pat) != r.K {
			return nil, fmt.Errorf("ehdiall: pattern %d has length %d, want %d", i, len(pat), r.K)
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
				return nil, fmt.Errorf("ehdiall: pattern %d has invalid genotype %d at site %d", i, g, j)
			}
		}
		// One pass over the unordered pairs: the posterior of the best
		// pair is its product over the sum of all pair products. h1
		// lacks the top heterozygous bit and h2 has it, so h1 <= h2.
		// The walk ends at s = 0, so >= gives ties to the smallest h1.
		low := lowHets(hets)
		total, bestW, pairs := 0.0, -1.0, 0
		var best PhasedPair
		for s := low; ; s = (s - 1) & low {
			h1, h2 := base|s, base|(hets^s)
			w := r.Freqs[h1] * r.Freqs[h2]
			total += w
			pairs++
			if w >= bestW {
				best = PhasedPair{H1: h1, H2: h2}
				bestW = w
			}
			if s == 0 {
				break
			}
		}
		if total > 0 {
			best.Posterior = bestW / total
		} else {
			// No compatible pair has positive frequency; fall back to
			// a uniform posterior over the compatible pairs.
			best.Posterior = 1 / float64(pairs)
		}
		out[i] = best
	}
	return out, nil
}
