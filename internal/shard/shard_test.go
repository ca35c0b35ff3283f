package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/genotype"
	"repro/internal/popgen"
)

// testDataset generates a small dataset with missing calls, so the
// complete-case path is exercised.
func testDataset(t *testing.T, numSNPs int) *genotype.Dataset {
	t.Helper()
	d, err := popgen.Generate(popgen.Config{
		NumSNPs: numSNPs, NumAffected: 24, NumUnaffected: 24, NumUnknown: 4,
		MissingRate:       0.03,
		RiskHaplotypeFreq: 0.3,
		Disease: popgen.DiseaseModel{
			CausalSites: []int{3, numSNPs/2 + 1}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPlan(t *testing.T) {
	d := testDataset(t, 51)
	plan, err := PlanFor(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumShards() != 7 {
		t.Fatalf("NumShards = %d, want 7", plan.NumShards())
	}
	if got := plan.Metas[6]; got.Start != 48 || got.End != 51 {
		t.Fatalf("last shard = [%d,%d), want [48,51)", got.Start, got.End)
	}
	seen := make(map[uint64]bool)
	covered := 0
	for i, m := range plan.Metas {
		if m.Index != i {
			t.Fatalf("meta %d has index %d", i, m.Index)
		}
		if seen[m.Fingerprint] {
			t.Fatalf("shard %d repeats a fingerprint", i)
		}
		seen[m.Fingerprint] = true
		covered += m.Width()
		for s := m.Start; s < m.End; s++ {
			if plan.ShardOf(s) != i {
				t.Fatalf("ShardOf(%d) = %d, want %d", s, plan.ShardOf(s), i)
			}
		}
	}
	if covered != 51 {
		t.Fatalf("shards cover %d columns, want 51", covered)
	}
	// A different parent yields different shard fingerprints for the
	// same ranges.
	plan2, err := NewPlan(plan.Parent+1, 51, plan.Rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Metas[0].Fingerprint == plan.Metas[0].Fingerprint {
		t.Fatal("shard fingerprint does not depend on the parent fingerprint")
	}
	if DefaultShardSize != 4096 {
		t.Fatalf("DefaultShardSize = %d, want 4096", DefaultShardSize)
	}
	pd, err := PlanFor(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pd.ShardSize != DefaultShardSize || pd.NumShards() != 1 {
		t.Fatalf("default plan: size %d shards %d", pd.ShardSize, pd.NumShards())
	}
}

// columnsEqual checks that the source serves every column of the
// dataset as the packed image the evaluator reads: word for word what
// PackColumn makes of the table's column.
func columnsEqual(t *testing.T, name string, d *genotype.Dataset, src Source) {
	t.Helper()
	plan := src.Plan()
	for i := 0; i < plan.NumShards(); i++ {
		sh, err := src.Shard(i)
		if err != nil {
			t.Fatalf("%s: shard %d: %v", name, i, err)
		}
		if sh.Meta != plan.Metas[i] {
			t.Fatalf("%s: shard %d meta mismatch", name, i)
		}
		for s := sh.Meta.Start; s < sh.Meta.End; s++ {
			got, want := sh.PackedColumn(s), genotype.PackColumn(d.Column(s, nil))
			if got.Len() != want.Len() || got.NumWords() != want.NumWords() {
				t.Fatalf("%s: shard %d column %d: %d rows in %d words, want %d in %d",
					name, i, s, got.Len(), got.NumWords(), want.Len(), want.NumWords())
			}
			for w := 0; w < want.NumWords(); w++ {
				if got.Word(w) != want.Word(w) {
					t.Fatalf("%s: shard %d column %d word %d: %#x != %#x",
						name, i, s, w, got.Word(w), want.Word(w))
				}
			}
		}
	}
}

func TestSourcesServeDatasetColumns(t *testing.T) {
	d := testDataset(t, 51)
	mem, err := NewMem(d, 8, 2) // LRU far smaller than the shard count
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	spill, err := NewSpill(d, t.TempDir(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	columnsEqual(t, "mem", d, mem)
	columnsEqual(t, "spill", d, spill)
	// Revisit after eviction: the data must be identical, not just
	// present.
	columnsEqual(t, "mem-revisit", d, mem)
	columnsEqual(t, "spill-revisit", d, spill)
	if got := mem.(*lruSource).resident(); got > 2 {
		t.Fatalf("mem LRU holds %d shards, cap 2", got)
	}
	if got := spill.(*spillSource).resident(); got > 2 {
		t.Fatalf("spill LRU holds %d shards, cap 2", got)
	}
}

func TestSpillFilesAreWriteOnceAndReusable(t *testing.T) {
	d := testDataset(t, 51)
	dir := t.TempDir()
	src, err := NewSpill(d, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Plan().NumShards(); i++ {
		if _, err := src.Shard(i); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil || len(files) != 7 {
		t.Fatalf("spilled %d files (err %v), want 7", len(files), err)
	}
	before, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}

	// A second source over the same directory reuses the files
	// (write-once: no rewrite of a valid file).
	src2, err := NewSpill(d, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	columnsEqual(t, "reused", d, src2)
	after, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("valid spill file was rewritten")
	}

	// A corrupted file is detected and rewritten from the table.
	if err := os.WriteFile(files[2], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	src3, err := NewSpill(d, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src3.Close()
	columnsEqual(t, "healed", d, src3)

	// A different dataset spilled into the same directory replaces the
	// stale files rather than serving the old dataset's genotypes.
	d2 := testDataset(t, 51)
	d2.Individuals[0].Genotypes[0] ^= 1 // different content, same shape
	src4, err := NewSpill(d2, dir, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src4.Close()
	columnsEqual(t, "replaced", d2, src4)
}

// TestSpillPayloadIsColumnMajorBytes pins the spill file format: a
// 40-byte header, then the table's genotype bytes column by column
// (Missing as 255), for a table with missing calls and a row count
// that does not fill its last packed word. Shards hold only packed
// columns in memory; the file is still the byte table.
func TestSpillPayloadIsColumnMajorBytes(t *testing.T) {
	d := testDataset(t, 51)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumIndividuals()%genotype.WordGenotypes == 0 {
		t.Fatalf("%d rows fill whole words; the test needs a partial last word", d.NumIndividuals())
	}
	missing := 0
	for _, ind := range d.Individuals {
		for _, g := range ind.Genotypes {
			if g == genotype.Missing {
				missing++
			}
		}
	}
	if missing == 0 {
		t.Fatal("test dataset has no missing calls")
	}
	const headerSize = 40
	if spillHeaderSize != headerSize {
		t.Fatalf("spill header is %d bytes, want %d", spillHeaderSize, headerSize)
	}
	dir := t.TempDir()
	src, err := NewSpill(d, dir, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	plan := src.Plan()
	for i, m := range plan.Metas {
		if _, err := src.Shard(i); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(spillPath(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < headerSize || !bytes.Equal(b[:headerSize], spillHeader(plan, m)) {
			t.Fatalf("shard %d: header does not describe the plan", i)
		}
		var want []byte
		for s := m.Start; s < m.End; s++ {
			for _, g := range d.Column(s, nil) {
				want = append(want, byte(g))
			}
		}
		if !bytes.Equal(b[headerSize:], want) {
			t.Fatalf("shard %d: payload is not the table's column-major bytes", i)
		}
	}
}

// TestSpillRejectsInvalidPayload: a spill file whose header matches
// the plan but whose payload holds a byte that is no genotype code is
// refused as corrupt, not packed as missing.
func TestSpillRejectsInvalidPayload(t *testing.T) {
	d := testDataset(t, 20)
	dir := t.TempDir()
	src, err := NewSpill(d, dir, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Shard(1); err != nil {
		t.Fatal(err)
	}
	src.Close()
	path := spillPath(dir, 1)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[spillHeaderSize+17] = 7
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	src2, err := NewSpill(d, dir, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	if _, err := src2.Shard(1); err == nil || !strings.Contains(err.Error(), "corrupt spill file") {
		t.Fatalf("Shard over an invalid payload byte: err = %v, want a corrupt-file error", err)
	}
}

func TestSourceShardOutOfRange(t *testing.T) {
	d := testDataset(t, 20)
	src, err := NewMem(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.Shard(-1); err == nil {
		t.Fatal("Shard(-1) succeeded")
	}
	if _, err := src.Shard(src.Plan().NumShards()); err == nil {
		t.Fatal("Shard(NumShards) succeeded")
	}
	src.Close()
	if _, err := src.Shard(0); err == nil {
		t.Fatal("Shard on a closed source succeeded")
	}
}
