package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/popgen"
	"repro/internal/shard"
)

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmokeEveryMetric runs each workload at smoke-test size, untraced
// and traced, and checks that the result line carries exactly the
// metrics of its kind, each with its unit, and that every check passed.
func TestSmokeEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", name, "-seed", "7", "-seconds", "1", "-trace", trace, "-tiny", "-trace-dir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEndMetrics
				if trace == "1" {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Value == nil {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if trace == "0" && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, *m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), "ga-paper51,sweep-wide,serve-jobs"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("workload %s has no runner", n)
		}
	}
	compare := func(kind string, got []metricJSON, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, program reports %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) || !bounded && g.Bound != nil {
				t.Errorf("%s %s: bound mismatch", kind, d.name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEndMetrics, true)
	compare("per_layer", b.PerLayer, perLayerMetrics, false)
}

// parityDataset is a small study with heavy missing data whose row
// count leaves a partial last packed word.
func parityDataset(t *testing.T, seed uint64) *genotype.Dataset {
	t.Helper()
	cfg := popgen.Paper51(seed)
	cfg.NumSNPs, cfg.NumAffected, cfg.NumUnaffected, cfg.NumUnknown = 60, 31, 29, 7
	cfg.MissingRate = 0.3
	d, err := popgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTracedEvaluatorParity checks that the traced evaluators return
// bit-identical values, and the same empty-group outcomes, as the
// program's fitness.Pipeline and shard.Evaluator over random SNP
// subsets of sizes 2-7.
func TestTracedEvaluatorParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, seed := range []uint64{1, 2, 3} {
		d := parityDataset(t, seed)
		pipe, err := fitness.NewPipeline(d, clump.T1, ehdiall.Config{})
		if err != nil {
			t.Fatal(err)
		}
		src, err := shard.NewMem(d, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		shardEv, err := shard.NewEvaluator(src, d, clump.T1, ehdiall.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var batch, run atomic.Uint32
		tr := newTracer()
		mono := newTracedEval(tr, d, clump.T1, &batch, &run)
		mono.packed = genotype.PackDataset(d)
		sharded := newTracedEval(tr, d, clump.T1, &batch, &run)
		sharded.src, sharded.ref = src, shardEv

		scrRef, scrTraced := fitness.NewScratch(), fitness.NewScratch()
		empties := 0
		for i := 0; i < 300; i++ {
			k := 2 + i%6
			sites := rng.Perm(d.NumSNPs())[:k]
			genotype.SortSites(sites)
			for _, c := range []struct {
				name   string
				ref    func() (float64, error)
				traced *tracedEval
			}{
				{"monolithic", func() (float64, error) { return pipe.EvaluateScratch(sites, scrRef) }, mono},
				{"sharded", func() (float64, error) { return shardEv.EvaluateScratch(sites, scrRef) }, sharded},
			} {
				want, wantErr := c.ref()
				got, gotErr := c.traced.EvaluateScratch(sites, scrTraced)
				if errors.Is(wantErr, fitness.ErrEmptyGroup) {
					empties++
				}
				if (wantErr == nil) != (gotErr == nil) || errors.Is(wantErr, fitness.ErrEmptyGroup) != errors.Is(gotErr, fitness.ErrEmptyGroup) {
					t.Fatalf("%s %v: error %v, reference %v", c.name, sites, gotErr, wantErr)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v: %v, reference %v", c.name, sites, got, want)
				}
			}
		}
		if empties == 0 {
			t.Errorf("seed %d: no subset hit an empty status group; the missing rate no longer exercises that path", seed)
		}
		if got := (shardedEval{sharded}).KeyFingerprint([]int{1, 20}); got != shardEv.KeyFingerprint([]int{1, 20}) {
			t.Errorf("forwarded key fingerprint %x, shard evaluator %x", got, shardEv.KeyFingerprint([]int{1, 20}))
		}
	}
}

// TestTracedEngineMatchesPipeline runs a batch with duplicates through
// a traced engine, compares its values with the program's pipeline, and
// checks that every computed evaluation left one eval span.
func TestTracedEngineMatchesPipeline(t *testing.T) {
	d := parityDataset(t, 4)
	tr := newTracer()
	st, err := newTracedStack(tr, d, clump.T1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.eng.Close()
	rng := rand.New(rand.NewPCG(3, 4))
	var batch [][]int
	for i := 0; i < 64; i++ {
		sites := rng.Perm(d.NumSNPs())[:2+i%3]
		genotype.SortSites(sites)
		batch = append(batch, sites, sites) // duplicates coalesce
	}
	pipe, err := fitness.NewPipeline(d, clump.T1, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	end := st.begin(tr, 1)
	values, errs := st.top.EvaluateBatchContext(context.Background(), batch)
	end()
	for i, sites := range batch {
		want, wantErr := pipe.Evaluate(sites)
		if (errs[i] == nil) != (wantErr == nil) || math.Float64bits(values[i]) != math.Float64bits(want) {
			t.Fatalf("%v: %v (%v), pipeline %v (%v)", sites, values[i], errs[i], want, wantErr)
		}
	}
	r := st.eng.Report()
	spans := tr.snapshot()
	m := layerMetrics(layerInput{spans: spans, workers: 2, measured: 0, report: r})
	if m["engine.batches"] != 1 || m["engine.computed"] != float64(r.Computed) || m["clump.calls"] == 0 {
		t.Errorf("layer metrics %v", m)
	}
	evals := 0
	for _, s := range spans {
		if s.kind == kindEval {
			evals++
		}
	}
	if int64(evals) != r.Computed {
		t.Errorf("%d eval spans for %d computed evaluations", evals, r.Computed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, kind: kindBatch, start: 0, end: 100},
		{id: 2, parent: 1, kind: kindEval, start: 10, end: 40},
		{id: 3, parent: 1, kind: kindEval, start: 30, end: 60},  // overlaps 2 (another worker)
		{id: 4, parent: 1, kind: kindEval, start: 90, end: 120}, // runs past its parent
		{id: 5, parent: 2, kind: kindEM, start: 12, end: 20},
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self %d, want %d", spans[i].id, self[i], want[i])
		}
	}
	if got := unionOf(spans[1:4]); got != 80 {
		t.Errorf("union %d, want 80", got)
	}
}
