package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
)

// gaRunSeconds is the wall time of one run of gaGenerations
// generations with 2 workers on 2 vCPUs; it sizes the run list to
// -seconds. Runs of the paper's stagnation stop last 55-115
// generations on these studies.
const (
	gaGenerations = 80
	gaRunSeconds  = 4.0
)

// gaWorkload is the ga-paper51 input list: one 51-SNP study and one
// GA seed per run, all derived from the workload seed.
type gaWorkload struct {
	seed     uint64
	cfg      repro.GAConfig
	datasets []*repro.Dataset
	// sessions holds one cold session per run, on the native backend.
	sessions []*repro.Session
}

func newGAWorkload(p params) (*gaWorkload, error) {
	// The reduced Table-2 shape of the root package's benchmarks, run
	// for a fixed number of generations: with the stagnation stop a
	// run's length, and with it its cost, varies by a quarter between
	// seeds, so the stop is set beyond the generation cap.
	cfg := repro.GAConfig{
		MinSize: 2, MaxSize: 6,
		PopulationSize:      100,
		PairsPerGeneration:  30,
		StagnationLimit:     1000,
		ImmigrantStagnation: 10,
		MaxGenerations:      gaGenerations,
	}
	runs := max(2, int(math.Round(p.seconds/gaRunSeconds)))
	if p.tiny {
		cfg = repro.GAConfig{MinSize: 2, MaxSize: 3, PopulationSize: 24, StagnationLimit: 1000, ImmigrantStagnation: 2, MaxGenerations: 12}
		runs = 2
	}
	w := &gaWorkload{seed: p.seed, cfg: cfg}
	for i := 0; i < runs; i++ {
		d, err := repro.Paper51Dataset(mix(p.seed, 2*i))
		if err != nil {
			return nil, err
		}
		s, err := repro.NewSession(d, repro.WithWorkers(2))
		if err != nil {
			w.close()
			return nil, err
		}
		w.datasets = append(w.datasets, d)
		w.sessions = append(w.sessions, s)
	}
	return w, nil
}

func (w *gaWorkload) close() { closeSessions(w.sessions) }

// config returns run i's GA configuration.
func (w *gaWorkload) config(i int) repro.GAConfig {
	cfg := w.cfg
	cfg.Seed = mix(w.seed, 2*i+1)
	return cfg
}

// gaPass is one pass over the run list.
type gaPass struct {
	results   []*repro.GAResult
	computed  []int64
	latencies []float64 // per generation, ms
	wall      time.Duration
	alloc     uint64
	failed    int64
}

func runGA(ctx context.Context, p params) (*outcome, error) {
	// Set-up: generate the studies and open one cold session per run.
	w, setup, err := timeSetup(15, func() (*gaWorkload, error) { return newGAWorkload(p) }, (*gaWorkload).close)
	if err != nil {
		return nil, err
	}
	defer w.close()

	un := gaMeasure(ctx, w)
	o := &outcome{attempted: int64(len(w.sessions)), failed: un.failed}
	gens := len(un.latencies)
	o.e2e = map[string]float64{
		"setup_s":         setup,
		"ops_per_s":       float64(gens) / un.wall.Seconds(),
		"op_p50_ms":       percentile(append([]float64(nil), un.latencies...), 0.50),
		"op_p95_ms":       percentile(append([]float64(nil), un.latencies...), 0.95),
		"alloc_kb_per_op": float64(un.alloc) / 1024 / float64(max(gens, 1)),
	}
	o.samples = fmt.Sprintf("%d runs, %d generations, %.2f s measured", len(w.sessions), gens, un.wall.Seconds())
	checkGA(o, w, un)
	if !p.trace {
		return o, nil
	}

	tr := newTracer()
	stacks := make([]*tracedStack, len(w.datasets))
	traced := make([]*repro.Session, len(w.datasets))
	defer func() {
		closeSessions(traced)
		for _, st := range stacks {
			if st != nil {
				st.eng.Close()
			}
		}
	}()
	for i, d := range w.datasets {
		st, err := newTracedStack(tr, d, clump.T1, 2, nil)
		if err != nil {
			return nil, err
		}
		stacks[i] = st
		if traced[i], err = repro.NewSession(d, repro.WithEvaluator(st.top)); err != nil {
			return nil, err
		}
	}
	tp := gaPass{}
	var report fitness.Report
	start := time.Now()
	for i, s := range traced {
		end := stacks[i].begin(tr, uint32(i+1))
		res, err := s.Run(ctx, repro.WithGAConfig(w.config(i)))
		end()
		if err != nil {
			return nil, fmt.Errorf("traced run %d: %w", i, err)
		}
		r := stacks[i].eng.Report()
		tp.results = append(tp.results, res)
		tp.computed = append(tp.computed, r.Computed)
		addCounters(&report, r)
	}
	tp.wall = time.Since(start)
	for i := range tp.results {
		o.checkf(sameJSON(tp.results[i], un.results[i]), "traced run %d result differs from the untraced run", i)
		o.checkf(tp.computed[i] == un.computed[i], "traced run %d computed %d evaluations, untraced %d", i, tp.computed[i], un.computed[i])
	}
	o.spans = tr.snapshot()
	generations := 0
	for _, r := range un.results {
		generations += r.Generations
	}
	o.layer = layerMetrics(layerInput{spans: o.spans, workers: 2, measured: tp.wall, report: report, ga: true, generations: generations})
	var group float64
	for i, st := range stacks {
		group += groupUSPerCall(w.datasets[i], st.eval.sampled())
	}
	o.layer["ehdiall.group_us_per_call"] = group / float64(len(stacks))
	o.layer["ga.best_fitness"], o.layer["ga.evals_to_best"] = searchQuality(un.results)
	o.layer["trace.overhead_pct"] = (tp.wall.Seconds()/un.wall.Seconds() - 1) * 100
	return o, nil
}

// gaMeasure runs the list once on the program's own sessions, timing
// every generation through the run's trace observer.
func gaMeasure(ctx context.Context, w *gaWorkload) gaPass {
	var pass gaPass
	alloc := allocBytes()
	start := time.Now()
	for i, s := range w.sessions {
		last := time.Now()
		observe := func(repro.TraceEntry) {
			now := time.Now()
			pass.latencies = append(pass.latencies, float64(now.Sub(last).Nanoseconds())/1e6)
			last = now
		}
		res, err := s.Run(ctx, repro.WithGAConfig(w.config(i)), repro.WithTrace(observe))
		if err != nil {
			pass.failed++
		}
		rep, _ := s.Report()
		pass.results = append(pass.results, res)
		pass.computed = append(pass.computed, rep.Computed)
	}
	pass.wall = time.Since(start)
	pass.alloc = allocBytes() - alloc
	return pass
}

// checkGA re-scores every run's best haplotype of every size with the
// byte reference pipeline; the reported fitness must match bit for bit.
func checkGA(o *outcome, w *gaWorkload, pass gaPass) {
	for i, res := range pass.results {
		if res == nil {
			o.checkf(false, "run %d returned no result", i)
			continue
		}
		ref, err := fitness.NewPipelineKernel(w.datasets[i], clump.T1, ehdiall.Config{}, false)
		if err != nil {
			o.checkf(false, "run %d: reference pipeline: %v", i, err)
			continue
		}
		for k := w.cfg.MinSize; k <= w.cfg.MaxSize; k++ {
			h := res.BestBySize[k]
			if h == nil {
				o.checkf(false, "run %d: no best haplotype of size %d", i, k)
				continue
			}
			v, err := ref.Evaluate(h.Sites)
			o.checkf(err == nil && math.Float64bits(v) == math.Float64bits(h.Fitness),
				"run %d size %d %v: reported fitness %v, reference %v (%v)", i, k, h.Sites, h.Fitness, v, err)
		}
	}
}

// searchQuality returns the mean best fitness and the mean evaluations
// at the best over runs × sizes — the paper's Table-2 quality and cost.
func searchQuality(results []*repro.GAResult) (best, evals float64) {
	n := 0
	for _, r := range results {
		if r == nil {
			continue
		}
		for k, h := range r.BestBySize {
			best += h.Fitness
			evals += float64(r.EvalsAtBest[k])
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return best / float64(n), evals / float64(n)
}

func closeSessions(ss []*repro.Session) {
	for _, s := range ss {
		if s != nil {
			s.Close()
		}
	}
}

func sameJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}
