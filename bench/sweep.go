package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro"
	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/popgen"
	"repro/internal/shard"
)

// sweepRepSeconds is the wall time of one repetition (a size-2 and a
// size-3 sweep of the full table) on 2 vCPUs; it sizes the
// repetitions to -seconds.
const sweepRepSeconds = 2.5

// sweepWorkload is the sweep-wide input: one wide, large-cohort study
// scanned window by window, the same scan repeated reps times on a
// fresh engine each time so no window is ever a cache hit.
type sweepWorkload struct {
	d         *repro.Dataset
	shardSize int
	sizes     []int
	reps      int
}

func newSweepWorkload(p params) (*sweepWorkload, error) {
	cfg := popgen.Paper51(mix(p.seed, 0))
	cfg.NumSNPs, cfg.NumAffected, cfg.NumUnaffected, cfg.NumUnknown = 12000, 900, 900, 200
	w := &sweepWorkload{shardSize: 256, sizes: []int{2, 3}, reps: max(1, int(math.Round(p.seconds/sweepRepSeconds)))}
	if p.tiny {
		cfg.NumSNPs, cfg.NumAffected, cfg.NumUnaffected, cfg.NumUnknown = 300, 60, 60, 20
		w.shardSize, w.reps = 64, 1
	}
	d, err := repro.GenerateDataset(cfg)
	if err != nil {
		return nil, err
	}
	w.d = d
	return w, nil
}

// sweepPass is one pass over every (repetition, size) sweep.
type sweepPass struct {
	results   []*repro.SweepResult // rep-major, then size
	computed  []int64
	latencies []float64 // per shard, ms
	repRates  []float64 // windows per second of each repetition
	windows   int64
	failed    int64
	wall      time.Duration
	alloc     uint64
}

func runSweep(ctx context.Context, p params) (*outcome, error) {
	w, setup, err := timeSetup(3, func() (*sweepWorkload, error) { return newSweepWorkload(p) }, func(*sweepWorkload) {})
	if err != nil {
		return nil, err
	}
	un, err := sweepMeasure(ctx, w)
	if err != nil {
		return nil, err
	}
	o := &outcome{failed: un.failed}
	for range w.reps {
		for _, k := range w.sizes {
			o.attempted += int64(w.d.NumSNPs() - k + 1)
		}
	}
	o.e2e = map[string]float64{
		"setup_s":         setup,
		"ops_per_s":       median(un.repRates),
		"op_p50_ms":       percentile(append([]float64(nil), un.latencies...), 0.50),
		"op_p95_ms":       percentile(append([]float64(nil), un.latencies...), 0.95),
		"alloc_kb_per_op": float64(un.alloc) / 1024 / float64(max(un.windows, 1)),
	}
	o.samples = fmt.Sprintf("%d sweeps, %d windows, %d shards, %.2f s measured", len(un.results), un.windows, len(un.latencies), un.wall.Seconds())
	checkSweep(o, w, un, mix(p.seed, 1))
	if !p.trace {
		return o, nil
	}

	tr := newTracer()
	var (
		tp      sweepPass
		report  fitness.Report
		samples [][]int
	)
	start := time.Now()
	for rep := range w.reps {
		for _, k := range w.sizes {
			res, r, sampled, err := tracedSweep(ctx, tr, w, k, uint32(len(tp.results)+1))
			if err != nil {
				return nil, err
			}
			tp.results = append(tp.results, res)
			tp.computed = append(tp.computed, r.Computed)
			addCounters(&report, r)
			if rep == 0 {
				samples = append(samples, sampled...)
			}
		}
	}
	tp.wall = time.Since(start)
	for i := range tp.results {
		o.checkf(sameJSON(tp.results[i], un.results[i]), "traced sweep %d result differs from the untraced sweep", i)
		o.checkf(tp.computed[i] == un.computed[i], "traced sweep %d computed %d windows, untraced %d", i, tp.computed[i], un.computed[i])
	}
	o.spans = tr.snapshot()
	o.layer = layerMetrics(layerInput{spans: o.spans, workers: 2, measured: tp.wall, report: report, sharded: true})
	o.layer["ehdiall.group_us_per_call"] = groupUSPerCall(w.d, samples)
	o.layer["trace.overhead_pct"] = (tp.wall.Seconds()/un.wall.Seconds() - 1) * 100
	return o, nil
}

// sweepMeasure runs every sweep on the program's own sharded engine
// (repro.NewShardedEngine over an in-memory source), timing each
// completed shard through the sweep's progress observer.
func sweepMeasure(ctx context.Context, w *sweepWorkload) (sweepPass, error) {
	var pass sweepPass
	alloc := allocBytes()
	start := time.Now()
	for range w.reps {
		repStart, repWindows := time.Now(), int64(0)
		for _, k := range w.sizes {
			eng, err := repro.NewShardedEngine(w.d, repro.T1, w.shardSize, "", 2)
			if err != nil {
				return pass, err
			}
			last := time.Now()
			observe := func(shard.SweepStatus) {
				now := time.Now()
				pass.latencies = append(pass.latencies, float64(now.Sub(last).Nanoseconds())/1e6)
				last = now
			}
			res, err := shard.RunSweep(ctx, eng, eng.Plan(), shard.SweepConfig{Size: k, Stride: 1}, nil, observe)
			pass.computed = append(pass.computed, eng.Report().Computed)
			eng.Close()
			if res == nil {
				return pass, err
			}
			if err != nil {
				pass.failed += int64(w.d.NumSNPs()-k+1) - res.Evaluated
			}
			pass.results = append(pass.results, res)
			pass.windows += res.Evaluated
			repWindows += res.Evaluated
		}
		pass.repRates = append(pass.repRates, float64(repWindows)/time.Since(repStart).Seconds())
	}
	pass.wall = time.Since(start)
	pass.alloc = allocBytes() - alloc
	return pass, nil
}

// tracedSweep runs one sweep on a traced sharded engine and returns its
// result, engine counters and sampled site sets.
func tracedSweep(ctx context.Context, tr *tracer, w *sweepWorkload, k int, run uint32) (*repro.SweepResult, fitness.Report, [][]int, error) {
	src, err := shard.NewMem(w.d, w.shardSize, 0)
	if err != nil {
		return nil, fitness.Report{}, nil, err
	}
	defer src.Close()
	st, err := newTracedStack(tr, w.d, clump.T1, 2, src)
	if err != nil {
		return nil, fitness.Report{}, nil, err
	}
	defer st.eng.Close()
	end := st.begin(tr, run)
	res, err := shard.RunSweep(ctx, st.top, src.Plan(), shard.SweepConfig{Size: k, Stride: 1}, nil, nil)
	end()
	if err != nil {
		return nil, fitness.Report{}, nil, fmt.Errorf("traced sweep of size %d: %w", k, err)
	}
	return res, st.eng.Report(), st.eval.sampled(), nil
}

// checkSweep checks every sweep's window count, that repeated sweeps
// agree, that each shard's best window scores bit-identically under the
// byte reference pipeline, and that no window of a seeded sample
// scores above the best of the shard that owns it.
func checkSweep(o *outcome, w *sweepWorkload, pass sweepPass, seed uint64) {
	ref, err := fitness.NewPipelineKernel(w.d, clump.T1, ehdiall.Config{}, false)
	if err != nil {
		o.checkf(false, "reference pipeline: %v", err)
		return
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	for i, res := range pass.results {
		k := w.sizes[i%len(w.sizes)]
		want := w.d.NumSNPs() - k + 1
		o.checkf(res.TotalWindows == want && res.Done == res.Shards, "sweep %d (size %d): %d windows in %d/%d shards, want %d windows", i, k, res.TotalWindows, res.Done, res.Shards, want)
		if i >= len(w.sizes) {
			o.checkf(sameJSON(res, pass.results[i%len(w.sizes)]), "sweep %d (size %d) differs from the first sweep of that size", i, k)
			continue
		}
		for _, sr := range res.PerShard {
			if sr.Best == nil {
				continue
			}
			v, err := ref.Evaluate(sr.Best)
			o.checkf(err == nil && math.Float64bits(v) == math.Float64bits(sr.Fitness),
				"size %d shard %d best %v: swept %v, reference %v (%v)", k, sr.Shard, sr.Best, sr.Fitness, v, err)
		}
		for range 32 {
			anchor := rng.IntN(want)
			sites := make([]int, k)
			for j := range sites {
				sites[j] = anchor + j
			}
			owner := res.PerShard[anchor/w.shardSize]
			v, err := ref.Evaluate(sites)
			if errors.Is(err, fitness.ErrEmptyGroup) {
				continue
			}
			o.checkf(err == nil && owner.Best != nil && v <= owner.Fitness,
				"size %d window %v: reference %v (%v) above its shard's best %v", k, sites, v, err, owner.Fitness)
		}
	}
}
