package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/shard"
)

// sweepRun is a sharded window sweep job (shard.RunSweep). Its frames
// are EventGeneration TraceEntries: Generation carries completed
// shards, Evaluations the windows evaluated in this life. The sweep
// itself runs inside stream, on the job's pump goroutine.
type sweepRun struct {
	started time.Time
	ctx     context.Context
	cancel  context.CancelFunc
	eng     *repro.ShardedEngine
	cfg     shard.SweepConfig
	sink    shard.Sink
	done    chan struct{}

	mu     sync.Mutex
	status shard.SweepStatus
	res    *shard.SweepResult
	err    error
}

// newSweep prepares the sweep over the session's sharded engine. sink
// persists checkpoints (a storeSink over the registry store, or
// shard.DiscardSink when the registry discards records); a checkpoint
// it already holds is resumed.
func newSweep(ctx context.Context, eng *repro.ShardedEngine, cfg shard.SweepConfig, sink shard.Sink) *sweepRun {
	ctx, cancel := context.WithCancel(ctx)
	return &sweepRun{
		started: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		eng:     eng,
		cfg:     cfg,
		sink:    sink,
		done:    make(chan struct{}),
	}
}

func (s *sweepRun) Done() <-chan struct{} { return s.done }

// Stop cancels and waits for the wind-down. The completed shards stay
// checkpointed, so a resubmitted sweep resumes.
func (s *sweepRun) Stop() {
	s.cancel()
	<-s.done
}

func (s *sweepRun) stream(publish func(Event)) {
	defer s.cancel()
	res, err := shard.RunSweep(s.ctx, s.eng, s.eng.Plan(), s.cfg, s.sink, func(st shard.SweepStatus) {
		s.mu.Lock()
		s.status = st
		s.mu.Unlock()
		publish(Event{Type: EventGeneration, Entry: &repro.TraceEntry{Generation: st.ShardsDone, Evaluations: st.Evaluated}})
	})
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		err = fmt.Errorf("%w: sweep stopped after %d of %d shards", repro.ErrCanceled, res.Done, res.Shards)
	}
	s.mu.Lock()
	s.res, s.err = res, err
	s.mu.Unlock()
	close(s.done)
}

// fill reports shard progress in GA-report clothing, the shard
// bookkeeping (the final result's once ended) and, once ended, the
// sweep outcome. A sweep has no GAResult.
func (s *sweepRun) fill(ji *JobInfo) {
	isEnded := ended(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	ji.Report = repro.JobReport{
		Running:     !isEnded,
		Generation:  s.status.ShardsDone,
		Evaluations: s.status.Evaluated,
		Elapsed:     time.Since(s.started),
	}
	ji.Shards = &ShardProgress{Total: s.status.ShardsTotal, Done: s.status.ShardsDone, Evaluated: s.status.Evaluated}
	if !isEnded {
		return
	}
	if s.res != nil {
		ji.Shards = &ShardProgress{Total: s.res.Shards, Done: s.res.Done, Resumed: s.res.Resumed, Evaluated: s.res.Evaluated}
	}
	ji.Sweep = s.res
	settle(ji, s.err)
}

// storeSink persists sweep checkpoints as CAS-versioned records in the
// registry's store, keyed by the job id. Concurrent writers (a
// restarted server racing a not-quite-dead predecessor on a shared
// store) are reconciled by merging their completed-shard sets and
// retrying the Put, so no completed shard is ever lost.
type storeSink struct {
	store Store
	jobID string
	ver   int64
}

func newStoreSink(store Store, jobID string) *storeSink {
	return &storeSink{store: store, jobID: jobID}
}

// Load implements shard.Sink.
func (s *storeSink) Load() (*shard.Checkpoint, error) {
	rec, err := s.store.Get(KindCheckpoint, s.jobID)
	if errors.Is(err, ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cp shard.Checkpoint
	if err := json.Unmarshal(rec.Data, &cp); err != nil {
		return nil, nil // corrupt checkpoint: start the sweep fresh
	}
	s.ver = rec.Version
	return &cp, nil
}

// Save implements shard.Sink with a bounded CAS retry loop.
func (s *storeSink) Save(cp *shard.Checkpoint) error {
	for attempt := 0; ; attempt++ {
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		rec, err := s.store.Put(KindCheckpoint, Record{ID: s.jobID, Version: s.ver, Data: b})
		if err == nil {
			s.ver = rec.Version
			return nil
		}
		if !errors.Is(err, ErrVersionConflict) || attempt >= 3 {
			return err
		}
		// Lost a CAS race: merge the other writer's completed shards
		// into ours and retry at the current version.
		cur, gerr := s.store.Get(KindCheckpoint, s.jobID)
		if gerr != nil {
			if errors.Is(gerr, ErrNotFound) {
				s.ver = 0 // deleted under us: recreate
				continue
			}
			return gerr
		}
		s.ver = cur.Version
		var other shard.Checkpoint
		if jerr := json.Unmarshal(cur.Data, &other); jerr == nil &&
			other.Parent == cp.Parent && other.NumSNPs == cp.NumSNPs &&
			other.Rows == cp.Rows && other.ShardSize == cp.ShardSize &&
			other.Size == cp.Size && other.Stride == cp.Stride {
			cp.Completed = shard.MergeCompleted(cp.Completed, other.Completed)
		}
	}
}
