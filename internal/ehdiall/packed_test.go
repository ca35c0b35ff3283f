package ehdiall

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genotype"
	"repro/internal/popgen"
)

// parityDataset builds a random dataset whose columns exercise the
// missing-code and tail-masking paths.
func parityDataset(rng *rand.Rand, rows, snps int, missRate float64) *genotype.Dataset {
	d := &genotype.Dataset{SNPs: make([]genotype.SNP, snps), Individuals: make([]genotype.Individual, rows)}
	for j := range d.SNPs {
		d.SNPs[j].Name = "S" + string(rune('a'+j))
	}
	for i := range d.Individuals {
		gs := make([]genotype.Genotype, snps)
		for j := range gs {
			if rng.Float64() < missRate {
				gs[j] = genotype.Missing
			} else {
				gs[j] = genotype.Genotype(rng.Intn(3))
			}
		}
		d.Individuals[i] = genotype.Individual{ID: "I", Status: genotype.Status(rng.Intn(3)), Genotypes: gs}
	}
	return d
}

// requireIdentical fails unless two Results are bit-for-bit equal in
// every field (float comparisons use ==, i.e. exact bits for non-NaN).
func requireIdentical(t *testing.T, tag string, packed, byte_ *Result) {
	t.Helper()
	if packed.K != byte_.K || packed.N != byte_.N {
		t.Fatalf("%s: K/N mismatch: packed %d/%d, byte %d/%d", tag, packed.K, packed.N, byte_.K, byte_.N)
	}
	if packed.LogLik != byte_.LogLik || packed.NullLogLik != byte_.NullLogLik {
		t.Fatalf("%s: loglik mismatch: packed (%v,%v), byte (%v,%v)",
			tag, packed.LogLik, packed.NullLogLik, byte_.LogLik, byte_.NullLogLik)
	}
	if packed.Iterations != byte_.Iterations || packed.Converged != byte_.Converged {
		t.Fatalf("%s: EM trajectory mismatch: packed %d/%v, byte %d/%v",
			tag, packed.Iterations, packed.Converged, byte_.Iterations, byte_.Converged)
	}
	if len(packed.Freqs) != len(byte_.Freqs) || len(packed.NullFreqs) != len(byte_.NullFreqs) {
		t.Fatalf("%s: table size mismatch", tag)
	}
	for h := range packed.Freqs {
		if packed.Freqs[h] != byte_.Freqs[h] {
			t.Fatalf("%s: Freqs[%d] = %v (packed) vs %v (byte)", tag, h, packed.Freqs[h], byte_.Freqs[h])
		}
		if packed.NullFreqs[h] != byte_.NullFreqs[h] {
			t.Fatalf("%s: NullFreqs[%d] = %v (packed) vs %v (byte)", tag, h, packed.NullFreqs[h], byte_.NullFreqs[h])
		}
	}
}

// TestEstimatePackedParity runs the packed and byte estimators over
// random datasets, row groups and site subsets and requires
// bit-identical Results — including a reused Scratch across calls.
func TestEstimatePackedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scr Scratch
	for _, rows := range []int{4, 31, 33, 64, 65, 176} {
		for _, missRate := range []float64{0, 0.3} {
			d := parityDataset(rng, rows, 9, missRate)
			packed := genotype.PackDataset(d)
			groups := map[string][]int{
				"affected":   d.ByStatus(genotype.Affected),
				"unaffected": d.ByStatus(genotype.Unaffected),
				"all":        nil,
			}
			for name, g := range groups {
				mask := genotype.NewPlaneMask(rows, g)
				groupRows := g
				if groupRows == nil {
					groupRows = make([]int, rows)
					for i := range groupRows {
						groupRows[i] = i
					}
				}
				for trial := 0; trial < 4; trial++ {
					k := 1 + rng.Intn(5)
					sites := rng.Perm(d.NumSNPs())[:k]
					genotype.SortSites(sites)

					byteRes, byteErr := EstimateDataset(d, groupRows, sites, Config{})
					cols := make([]genotype.PackedColumn, k)
					for i, s := range sites {
						cols[i] = packed.Col(s)
					}
					packedRes, packedErr := EstimatePacked(cols, mask, Config{}, &scr)
					if (byteErr == nil) != (packedErr == nil) {
						t.Fatalf("rows=%d miss=%v group=%s sites=%v: errors disagree: byte %v, packed %v",
							rows, missRate, name, sites, byteErr, packedErr)
					}
					if byteErr != nil {
						if !errors.Is(byteErr, ErrNoData) || !errors.Is(packedErr, ErrNoData) {
							t.Fatalf("unexpected errors: byte %v, packed %v", byteErr, packedErr)
						}
						continue
					}
					requireIdentical(t, "random", packedRes, byteRes)
				}
			}
		}
	}
}

// TestGroupPackedTableReuse: one Scratch groups many calls of varying
// k, row group and row count, and every call yields exactly the byte
// path's groups — same patterns, in first-appearance order, with the
// same counts. A slot left over from an earlier call must never be
// mistaken for a live one, also when the table's generation stamp
// wraps around to the stamp of a call whose slots are still there.
func TestGroupPackedTableReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var scr Scratch
	check := func(call int, d *genotype.Dataset, groupRows, sites []int) {
		t.Helper()
		packed := genotype.PackDataset(d)
		cols := make([]genotype.PackedColumn, len(sites))
		for i, s := range sites {
			cols[i] = packed.Col(s)
		}
		got, gotN := groupPacked(cols, genotype.NewPlaneMask(d.NumIndividuals(), groupRows), &scr)
		if groupRows == nil {
			groupRows = make([]int, d.NumIndividuals())
			for i := range groupRows {
				groupRows[i] = i
			}
		}
		want, wantN, err := groupPatterns(d.ColumnPatterns(groupRows, sites), len(sites))
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("call %d (rows=%d k=%d stamp=%d): packed %d rows in %v, byte %d rows in %v",
				call, d.NumIndividuals(), len(sites), scr.stamp, gotN, got, wantN, want)
		}
	}
	for call := 0; call < 40; call++ {
		rows := []int{5, 33, 176, 700}[call%4]
		d := parityDataset(rng, rows, 12, 0.1)
		var groupRows []int
		if call%3 != 0 {
			groupRows = d.ByStatus(genotype.Status(call % 2))
		}
		sites := rng.Perm(d.NumSNPs())[:1+rng.Intn(10)]
		genotype.SortSites(sites)
		check(call, d, groupRows, sites)
	}

	scr = Scratch{}
	d := parityDataset(rng, 176, 12, 0.1)
	sites := []int{1, 4, 6}
	check(0, d, nil, sites)
	scr.stamp = math.MaxUint32
	check(1, d, nil, sites)
	if scr.stamp != 1 {
		t.Fatalf("stamp %d after the wrap, want 1", scr.stamp)
	}
}

// TestEstimatePackedNoData: a group whose every member is missing at a
// selected site must fail with ErrNoData on both paths.
func TestEstimatePackedNoData(t *testing.T) {
	d := parityDataset(rand.New(rand.NewSource(8)), 40, 3, 0)
	for i := range d.Individuals {
		d.Individuals[i].Genotypes[1] = genotype.Missing
	}
	packed := genotype.PackDataset(d)
	cols := []genotype.PackedColumn{packed.Col(0), packed.Col(1)}
	_, err := EstimatePacked(cols, packed.AllMask(), Config{}, nil)
	if !errors.Is(err, ErrNoData) {
		t.Fatalf("EstimatePacked over all-missing column: err = %v, want ErrNoData", err)
	}
}

// TestEstimatePackedValidation mirrors Estimate's k bounds.
func TestEstimatePackedValidation(t *testing.T) {
	d := parityDataset(rand.New(rand.NewSource(9)), 10, 2, 0)
	packed := genotype.PackDataset(d)
	if _, err := EstimatePacked(nil, packed.AllMask(), Config{}, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	big := make([]genotype.PackedColumn, MaxSNPs+1)
	for i := range big {
		big[i] = packed.Col(0)
	}
	if _, err := EstimatePacked(big, packed.AllMask(), Config{}, nil); err == nil {
		t.Fatal("k > MaxSNPs accepted")
	}
	short := genotype.PackColumn(make([]genotype.Genotype, 5))
	if _, err := EstimatePacked([]genotype.PackedColumn{short}, packed.AllMask(), Config{}, nil); err == nil {
		t.Fatal("column/mask row mismatch accepted")
	}
}

// paper51Columns returns the packed columns of the given sites of the
// paper's 51-SNP study and the affected-row mask: one status group of
// the production fitness evaluation.
func paper51Columns(tb testing.TB, sites []int) ([]genotype.PackedColumn, genotype.PlaneMask) {
	tb.Helper()
	d, err := popgen.Generate(popgen.Paper51(42))
	if err != nil {
		tb.Fatal(err)
	}
	packed := genotype.PackDataset(d)
	cols := make([]genotype.PackedColumn, len(sites))
	for i, s := range sites {
		cols[i] = packed.Col(s)
	}
	return cols, genotype.NewPlaneMask(packed.NumRows(), d.ByStatus(genotype.Affected))
}

// TestEstimatePackedAllocFree: one warm Scratch serves k = 1…8 and back
// down to 2 without allocating, so every buffer — the pair products
// and the SQUAREM cycle's frequency vectors included — grows once and
// is reused.
func TestEstimatePackedAllocFree(t *testing.T) {
	cols, mask := paper51Columns(t, append(slices.Clone(popgen.PaperCausalSites), 25, 37))
	var ks []int
	for k := 1; k <= len(cols); k++ {
		ks = append(ks, k)
	}
	for k := len(cols) - 1; k >= 2; k-- {
		ks = append(ks, k)
	}
	var scr Scratch
	sweep := func() {
		for _, k := range ks {
			if _, err := EstimatePacked(cols[:k], mask, Config{}, &scr); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep()
	// One measured sweep: any allocation in any of its calls counts.
	if allocs := testing.AllocsPerRun(1, sweep); allocs != 0 {
		t.Fatalf("EstimatePacked with a warm scratch: %v allocs over k = %v, want 0", allocs, ks)
	}
}

// The production estimation path: packed columns, a warm Scratch.
func benchmarkEstimatePackedK(b *testing.B, k int) {
	cols, mask := paper51Columns(b, popgen.PaperCausalSites[:k])
	var scr Scratch
	res, err := EstimatePacked(cols, mask, Config{}, &scr)
	if err != nil {
		b.Fatal(err)
	}
	iters := res.Iterations
	b.ReportAllocs()
	for b.Loop() {
		if _, err := EstimatePacked(cols, mask, Config{}, &scr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(iters), "iters/op")
}

func BenchmarkEstimatePackedK2(b *testing.B) { benchmarkEstimatePackedK(b, 2) }
func BenchmarkEstimatePackedK4(b *testing.B) { benchmarkEstimatePackedK(b, 4) }
func BenchmarkEstimatePackedK6(b *testing.B) { benchmarkEstimatePackedK(b, 6) }

// BenchmarkGroupPacked times the grouping front end alone (complete-case
// filtering, per-row pattern keys, group lookup) with a warm Scratch, at
// k = 2…8 on the paper-51 affected rows and on every row of a 1,800-row
// cohort drawn from the same generator.
func BenchmarkGroupPacked(b *testing.B) {
	sites := append(slices.Clone(popgen.PaperCausalSites), 25, 37)
	paperCols, paperMask := paper51Columns(b, sites)
	cfg := popgen.Paper51(42)
	cfg.NumAffected, cfg.NumUnaffected, cfg.NumUnknown = 900, 900, 0
	d, err := popgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	packed := genotype.PackDataset(d)
	cohortCols := make([]genotype.PackedColumn, len(sites))
	for i, s := range sites {
		cohortCols[i] = packed.Col(s)
	}
	sets := []struct {
		name string
		cols []genotype.PackedColumn
		mask genotype.PlaneMask
	}{
		{"paper51", paperCols, paperMask},
		{"cohort1800", cohortCols, packed.AllMask()},
	}
	for _, set := range sets {
		for _, k := range []int{2, 3, 4, 6, 8} {
			b.Run(fmt.Sprintf("%s/k%d", set.name, k), func(b *testing.B) {
				var scr Scratch
				groupPacked(set.cols[:k], set.mask, &scr)
				b.ReportAllocs()
				for b.Loop() {
					groupPacked(set.cols[:k], set.mask, &scr)
				}
			})
		}
	}
}
