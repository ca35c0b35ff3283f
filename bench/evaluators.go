package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/engine"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/shard"
)

// tracedEval is a fitness.ScratchEvaluator that composes the same
// calls as fitness.Pipeline.EvaluateScratch (packed column gather, one
// ehdiall.EstimatePacked per status group, fitness.Scratch.Score) or,
// with a shard source, as shard.Evaluator.EvaluateScratch, and records
// a span around each of them. It sits under engine.New, so each span
// is one computed evaluation inside an engine worker.
type tracedEval struct {
	tr              *tracer
	numSNPs         int
	affMask, unMask genotype.PlaneMask
	stat            clump.Statistic

	// Exactly one column source is set: packed for the monolithic
	// path, src (with ref for its cache-key fingerprints) for the
	// sharded one.
	packed *genotype.Packed
	src    shard.Source
	ref    *shard.Evaluator

	// batch is the id of the engine batch in flight, the parent of
	// every eval span; the benchmark drives one batch at a time.
	batch *atomic.Uint32
	run   *atomic.Uint32

	scratch sync.Pool

	// samples keeps every sampleEvery-th computed site set, for the
	// grouping-only re-run of the EM calls.
	sampleMu sync.Mutex
	samples  [][]int
	evals    atomic.Int64
}

const (
	sampleEvery = 16
	maxSamples  = 4096
)

func newTracedEval(tr *tracer, d *genotype.Dataset, stat clump.Statistic, batch, run *atomic.Uint32) *tracedEval {
	return &tracedEval{
		tr:      tr,
		numSNPs: d.NumSNPs(),
		affMask: genotype.NewPlaneMask(d.NumIndividuals(), d.ByStatus(genotype.Affected)),
		unMask:  genotype.NewPlaneMask(d.NumIndividuals(), d.ByStatus(genotype.Unaffected)),
		stat:    stat,
		batch:   batch,
		run:     run,
	}
}

// shardedEval is a tracedEval over a shard source. It forwards the
// shard evaluator's cache-key fingerprint, so engine.New keys a traced
// sharded engine's memo cache exactly as the program's.
type shardedEval struct{ *tracedEval }

func (e shardedEval) KeyFingerprint(sites []int) uint64 { return e.ref.KeyFingerprint(sites) }

func (e *tracedEval) Evaluate(sites []int) (float64, error) {
	scr, _ := e.scratch.Get().(*fitness.Scratch)
	if scr == nil {
		scr = fitness.NewScratch()
	}
	defer e.scratch.Put(scr)
	return e.EvaluateScratch(sites, scr)
}

func (e *tracedEval) checkSites(sites []int) error {
	if len(sites) == 0 {
		return fmt.Errorf("bench: empty haplotype")
	}
	if len(sites) > ehdiall.MaxSNPs {
		return fmt.Errorf("bench: haplotype size %d exceeds %d", len(sites), ehdiall.MaxSNPs)
	}
	prev := -1
	for _, s := range sites {
		if s <= prev || s >= e.numSNPs {
			return fmt.Errorf("bench: invalid sites %v", sites)
		}
		prev = s
	}
	return nil
}

func (e *tracedEval) EvaluateScratch(sites []int, scr *fitness.Scratch) (float64, error) {
	if err := e.checkSites(sites); err != nil {
		return 0, err
	}
	id := e.tr.newID()
	run := e.run.Load()
	start := e.tr.now()
	v, err := e.evaluate(id, run, sites, scr)
	e.tr.add(span{id: id, parent: e.batch.Load(), run: run, kind: kindEval, k: uint8(len(sites)), start: start, end: e.tr.now()})
	if e.evals.Add(1)%sampleEvery == 0 {
		e.sampleMu.Lock()
		if len(e.samples) < maxSamples {
			e.samples = append(e.samples, append([]int(nil), sites...))
		}
		e.sampleMu.Unlock()
	}
	return v, err
}

func (e *tracedEval) evaluate(id, run uint32, sites []int, scr *fitness.Scratch) (float64, error) {
	if err := e.gather(id, run, sites, scr); err != nil {
		return 0, err
	}
	aff, err := e.estimate(id, run, e.affMask, scr.PackedCols, &scr.Aff)
	if err != nil {
		return 0, err
	}
	un, err := e.estimate(id, run, e.unMask, scr.PackedCols, &scr.Un)
	if err != nil {
		return 0, err
	}
	start := e.tr.now()
	v, err := scr.Score(aff, un, e.stat)
	e.tr.add(span{id: e.tr.newID(), parent: id, run: run, kind: kindClump, k: uint8(len(sites)), start: start, end: e.tr.now()})
	return v, err
}

// gather fills scr.PackedCols with the sites' packed columns: straight
// from the packed table, or shard by shard (one Source.Shard call per
// distinct shard, as shard.Evaluator does), timing each Shard call.
func (e *tracedEval) gather(id, run uint32, sites []int, scr *fitness.Scratch) error {
	if cap(scr.PackedCols) < len(sites) {
		scr.PackedCols = make([]genotype.PackedColumn, len(sites))
	}
	scr.PackedCols = scr.PackedCols[:len(sites)]
	if e.src == nil {
		for i, s := range sites {
			scr.PackedCols[i] = e.packed.Col(s)
		}
		return nil
	}
	plan := e.src.Plan()
	var cur *shard.Shard
	for i, s := range sites {
		if si := plan.ShardOf(s); cur == nil || cur.Meta.Index != si {
			start := e.tr.now()
			sh, err := e.src.Shard(si)
			e.tr.add(span{id: e.tr.newID(), parent: id, run: run, kind: kindShard, start: start, end: e.tr.now()})
			if err != nil {
				return err
			}
			cur = sh
		}
		scr.PackedCols[i] = cur.PackedColumn(s)
	}
	return nil
}

func (e *tracedEval) estimate(id, run uint32, mask genotype.PlaneMask, cols []genotype.PackedColumn, scr *ehdiall.Scratch) (*ehdiall.Result, error) {
	start := e.tr.now()
	res, err := ehdiall.EstimatePacked(cols, mask, ehdiall.Config{}, scr)
	end := e.tr.now()
	if err != nil {
		e.tr.add(span{id: e.tr.newID(), parent: id, run: run, kind: kindEM, k: uint8(len(cols)), start: start, end: end})
		if errors.Is(err, ehdiall.ErrNoData) {
			return nil, fitness.ErrEmptyGroup
		}
		return nil, err
	}
	e.tr.add(span{id: e.tr.newID(), parent: id, run: run, kind: kindEM, k: uint8(len(cols)), conv: res.Converged, n: uint32(res.Iterations), start: start, end: end})
	return res, nil
}

// sampled returns the kept site sets.
func (e *tracedEval) sampled() [][]int {
	e.sampleMu.Lock()
	defer e.sampleMu.Unlock()
	return append([][]int(nil), e.samples...)
}

// batchTracer sits above a traced engine and records one span per
// batch; the GA reaches it through repro.WithEvaluator and the sweep
// through shard.RunSweep. Its batches are the engine's.
type batchTracer struct {
	eng   *engine.Engine
	tr    *tracer
	batch *atomic.Uint32
	run   *atomic.Uint32
	// parent is the root span the batches belong to.
	parent atomic.Uint32
}

func (b *batchTracer) Evaluate(sites []int) (float64, error) {
	values, errs := b.EvaluateBatchContext(context.Background(), [][]int{sites})
	return values[0], errs[0]
}

func (b *batchTracer) EvaluateBatchContext(ctx context.Context, batch [][]int) ([]float64, []error) {
	id := b.tr.newID()
	b.batch.Store(id)
	start := b.tr.now()
	values, errs := b.eng.EvaluateBatchContext(ctx, batch)
	b.tr.add(span{id: id, parent: b.parent.Load(), run: b.run.Load(), kind: kindBatch, n: uint32(len(batch)), start: start, end: b.tr.now()})
	return values, errs
}

// tracedStack is one traced engine with its evaluator and batch
// tracer: the traced counterpart of a session backend.
type tracedStack struct {
	eval  *tracedEval
	eng   *engine.Engine
	top   *batchTracer
	batch atomic.Uint32
	run   atomic.Uint32
}

// newTracedStack starts an engine with the given workers over a traced
// evaluator of d: monolithic when src is nil, over src's shards
// otherwise. The cache keys match the program's engine over d.
func newTracedStack(tr *tracer, d *genotype.Dataset, stat clump.Statistic, workers int, src shard.Source) (*tracedStack, error) {
	st := &tracedStack{}
	ev := newTracedEval(tr, d, stat, &st.batch, &st.run)
	var inner fitness.Evaluator = ev
	if src == nil {
		ev.packed = genotype.PackDataset(d)
	} else {
		ref, err := shard.NewEvaluator(src, d, stat, ehdiall.Config{})
		if err != nil {
			return nil, err
		}
		ev.src, ev.ref = src, ref
		inner = shardedEval{ev}
	}
	eng, err := engine.New(inner, engine.Options{Workers: workers, Fingerprint: d.Fingerprint()})
	if err != nil {
		return nil, err
	}
	st.eval, st.eng = ev, eng
	st.top = &batchTracer{eng: eng, tr: tr, batch: &st.batch, run: &st.run}
	return st, nil
}

// begin opens a root span for run and makes it the parent of the
// stack's batches; the returned func closes it.
func (st *tracedStack) begin(tr *tracer, run uint32) func() {
	id := tr.newID()
	st.run.Store(run)
	st.top.parent.Store(id)
	start := tr.now()
	return func() {
		tr.add(span{id: id, run: run, kind: kindRun, start: start, end: tr.now()})
	}
}

var (
	_ fitness.ScratchEvaluator      = (*tracedEval)(nil)
	_ engine.KeyFingerprinter       = shardedEval{}
	_ fitness.ContextBatchEvaluator = (*batchTracer)(nil)
)
