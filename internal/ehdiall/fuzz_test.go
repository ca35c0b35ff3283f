package ehdiall

import (
	"testing"

	"repro/internal/genotype"
)

// FuzzEstimateValid runs the estimator on arbitrary samples: n <= 200
// individuals over k <= 8 sites, where individual i's genotype at site
// j is genos[(i*k+j) mod len(genos)] mod 3 (all 0 when genos is
// empty). Every fit must be a valid EM fit (checkValidFit: LL1 >= LL0,
// finite frequencies summing to one, a converged fit a fixed point of
// the reference iteration).
func FuzzEstimateValid(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{1, 1, 2, 0})           // a single individual
	f.Add(uint8(39), uint8(4), []byte{0, 2, 2, 0, 2, 0, 0}) // all homozygous
	oneHet := make([]byte, 50*6)
	for i := 0; i < 50; i++ {
		for j := 0; j < 6; j++ {
			switch {
			case j == i%6:
				oneHet[i*6+j] = 1
			case (i+j)%3 == 0:
				oneHet[i*6+j] = 2
			}
		}
	}
	f.Add(uint8(49), uint8(5), oneHet) // one heterozygous site each
	// Everyone heterozygous everywhere: H0 is the uniform table, a
	// saddle of the likelihood that the EM map leaves fixed.
	f.Add(uint8(7), uint8(5), []byte{1})
	f.Fuzz(func(t *testing.T, nb, kb uint8, genos []byte) {
		n, k := 1+int(nb)%200, 1+int(kb)%8
		pats := make([][]genotype.Genotype, n)
		for i := range pats {
			pats[i] = make([]genotype.Genotype, k)
			for j := range pats[i] {
				if len(genos) > 0 {
					pats[i][j] = genotype.Genotype(genos[(i*k+j)%len(genos)] % 3)
				}
			}
		}
		cfg := Config{}.withDefaults()
		res, err := Estimate(pats, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		groups, _, err := groupPatterns(pats, k)
		if err != nil {
			t.Fatal(err)
		}
		checkValidFit(t, "fuzz", groups, n, res, cfg)
	})
}
