package main

import (
	"fmt"
	"time"

	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/genotype"
)

// layerInput is what one traced pass hands to layerMetrics.
type layerInput struct {
	spans    []span
	workers  int
	measured time.Duration // wall time of the traced measured phase
	report   fitness.Report
	// sharded marks a pass over shard sources: eval self time is then
	// the shard gather.
	sharded bool
	// ga marks a pass whose root spans are GA runs.
	ga          bool
	generations int
}

// layerMetrics derives the per-layer metrics from one traced pass.
// Every per-layer metric is set; a layer the pass did not reach reads 0.
func layerMetrics(in layerInput) map[string]float64 {
	m := make(map[string]float64)
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	self := selfTimes(in.spans)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	var (
		emCalls, emFits, emNonConv, clumpCalls, shardCalls int64
		emSelf, clumpSelf, shardSelf, evalSelf             int64
		emDur, emIters                                     [ehdiall.MaxSNPs + 1]int64
		emByK                                              [ehdiall.MaxSNPs + 1]int64
		batches, batchSelf, batchDur, batchItems           int64
		batchWorkerNS, evalInBatch                         int64
		runSelf                                            int64
		runs, jobs                                         []span
	)
	isBatch := make(map[uint32]bool)
	for _, s := range in.spans {
		if s.kind == kindBatch {
			isBatch[s.id] = true
		}
	}
	for i, s := range in.spans {
		switch s.kind {
		case kindEM:
			emCalls++
			emSelf += self[i]
			if s.n > 0 {
				emFits++
				if !s.conv {
					emNonConv++
				}
				emByK[s.k]++
				emDur[s.k] += s.dur()
				emIters[s.k] += int64(s.n)
			}
		case kindClump:
			clumpCalls++
			clumpSelf += self[i]
		case kindShard:
			shardCalls++
			shardSelf += self[i]
		case kindEval:
			evalSelf += self[i]
			if isBatch[s.parent] {
				evalInBatch += s.dur()
			}
		case kindBatch:
			batches++
			batchSelf += self[i]
			batchDur += s.dur()
			batchItems += int64(s.n)
			batchWorkerNS += s.dur() * int64(in.workers)
		case kindRun:
			runs = append(runs, s)
			runSelf += self[i]
		case kindJob:
			jobs = append(jobs, s)
		}
	}
	m["ehdiall.calls"] = float64(emCalls)
	m["ehdiall.self_ms"] = ms(emSelf)
	for k := 2; k <= 6; k++ {
		if emByK[k] > 0 {
			m[fmt.Sprintf("ehdiall.us_per_call.k%d", k)] = float64(emDur[k]) / float64(emByK[k]) / 1e3
			m[fmt.Sprintf("ehdiall.iters_mean.k%d", k)] = float64(emIters[k]) / float64(emByK[k])
		}
	}
	if emFits > 0 {
		m["ehdiall.nonconverged_ratio"] = float64(emNonConv) / float64(emFits)
	}
	m["clump.calls"] = float64(clumpCalls)
	m["clump.self_ms"] = ms(clumpSelf)
	if in.sharded {
		m["shard.calls"] = float64(shardCalls)
		m["shard.self_ms"] = ms(shardSelf)
		m["shard.gather_ms"] = ms(evalSelf)
	}
	r := in.report
	m["engine.requests"] = float64(r.Requests)
	m["engine.computed"] = float64(r.Computed)
	m["engine.coalesced"] = float64(r.Coalesced)
	if r.Requests > 0 {
		m["engine.hit_ratio"] = float64(r.CacheHits) / float64(r.Requests)
	}
	m["engine.batches"] = float64(batches)
	if batches > 0 {
		m["engine.batch_ms"] = ms(batchDur) / float64(batches)
		m["core.batch_size_mean"] = float64(batchItems) / float64(batches)
	}
	if batchWorkerNS > 0 {
		m["engine.busy_ratio"] = float64(evalInBatch) / float64(batchWorkerNS)
	}
	m["engine.self_ms"] = ms(batchSelf)
	if in.ga {
		m["core.generations"] = float64(in.generations)
		m["core.self_ms"] = ms(runSelf)
	} else {
		m["core.batch_size_mean"] = 0
	}
	m["trace.spans"] = float64(len(in.spans))
	roots := runs
	if len(jobs) > 0 {
		roots = jobs // serve-jobs: the replayed runs lie outside the measured phase
	}
	m["trace.unaccounted_ms"] = ms(in.measured.Nanoseconds() - unionOf(roots))
	return m
}

// addCounters sums r's request counters into dst.
func addCounters(dst *fitness.Report, r fitness.Report) {
	dst.Requests += r.Requests
	dst.Computed += r.Computed
	dst.CacheHits += r.CacheHits
	dst.Coalesced += r.Coalesced
}

// groupUSPerCall re-runs the EM calls of the sampled site sets with
// MaxIter 1 — pattern grouping plus a single EM iteration — on both
// status groups and returns the mean microseconds per call.
func groupUSPerCall(d *genotype.Dataset, samples [][]int) float64 {
	if len(samples) == 0 {
		return 0
	}
	packed := genotype.PackDataset(d)
	masks := []genotype.PlaneMask{
		genotype.NewPlaneMask(d.NumIndividuals(), d.ByStatus(genotype.Affected)),
		genotype.NewPlaneMask(d.NumIndividuals(), d.ByStatus(genotype.Unaffected)),
	}
	var scr ehdiall.Scratch
	cfg := ehdiall.Config{MaxIter: 1}
	cols := make([]genotype.PackedColumn, 0, ehdiall.MaxSNPs)
	calls := 0
	start := time.Now()
	for _, sites := range samples {
		cols = cols[:0]
		for _, s := range sites {
			cols = append(cols, packed.Col(s))
		}
		for _, mask := range masks {
			_, _ = ehdiall.EstimatePacked(cols, mask, cfg, &scr) // ErrNoData calls are timed like the traced ones
			calls++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls)
}
