package serve

import (
	"context"
	"errors"
	"sync"

	"repro"
)

// run is one background job of any kind — a GA or island-model run, a
// portfolio race or a sharded window sweep — reduced to what the
// registry drives: launch, pump, stop, drain and persistence all go
// through these four methods, so no registry path branches on the
// kind.
type run interface {
	// Done is closed when the run has ended and fill reports its
	// outcome.
	Done() <-chan struct{}
	// Stop cancels the run and waits for it to end.
	Stop()
	// stream forwards the run's native progress stream to publish as
	// Event frames and returns once the run has ended (Done closed).
	stream(publish func(Event))
	// fill sets the kind's part of the status document: Report, the
	// terminal State and Error once the run has ended, and the kind's
	// own section (Result, Shards/Sweep or Race).
	fill(ji *JobInfo)
}

// ended reports whether the run's Done channel is closed.
func ended(r run) bool {
	select {
	case <-r.Done():
		return true
	default:
		return false
	}
}

// settle sets the terminal state of an ended run from its error.
func settle(ji *JobInfo, err error) {
	switch {
	case err == nil:
		ji.State = JobDone
	case errors.Is(err, repro.ErrCanceled):
		ji.State = JobCanceled
		ji.Error = err.Error()
	default:
		ji.State = JobFailed
		ji.Error = err.Error()
	}
}

// gaRun is a GA or island-model job (Session.Start). Its frames are
// the run's TraceEntries as EventGeneration.
type gaRun struct{ *repro.Job }

// startGA launches the GA run, with island options when requested;
// their validation errors (negative counts, migration without islands)
// surface here as ErrBadConfig → HTTP 400.
func startGA(ctx context.Context, sess *repro.Session, req JobRequest) (run, error) {
	opts := []repro.Option{repro.WithGAConfig(req.Config)}
	if req.Islands != 0 {
		opts = append(opts, repro.WithIslands(req.Islands))
	}
	if req.MigrationInterval != 0 || req.MigrationCount != 0 {
		opts = append(opts, repro.WithMigration(req.MigrationInterval, req.MigrationCount))
	}
	job, err := sess.Start(ctx, opts...)
	if err != nil {
		return nil, err
	}
	return gaRun{job}, nil
}

func (g gaRun) Stop() { g.Job.Stop() }

func (g gaRun) stream(publish func(Event)) {
	for e := range g.Progress() { // closed after Done
		publish(Event{Type: EventGeneration, Entry: &e})
	}
}

func (g gaRun) fill(ji *JobInfo) {
	ji.Report = g.Report()
	if ended(g) {
		res, err := g.Wait()
		ji.Result = res
		settle(ji, err)
	}
}

// jobEntry is the registry's record of one background run: the run,
// its cancel function (DELETE and drain both go through the context
// path), and the event fan-out state.
type jobEntry struct {
	id        string
	sessionID string
	run       run
	req       *JobRequest // persisted with the record so restore can resume sweeps
	cancel    context.CancelFunc
	storeVer  int64 // job record's store version (guarded by Registry.mu)

	mu        sync.Mutex
	subs      map[chan Event]struct{}
	latest    Event
	hasLatest bool
	finished  bool
}

// subscriberBuffer is each SSE subscriber's channel capacity. Like
// Job.Progress, a full buffer conflates: the oldest frame is dropped
// so a slow client misses old frames and never blocks anything.
const subscriberBuffer = 16

// pump forwards the run's stream to every subscriber, one goroutine
// per job. When the run ends it closes the subscriber channels,
// persists the outcome and frees the job's slot, then releases the
// registry's job WaitGroup count.
func (je *jobEntry) pump(r *Registry) {
	defer r.jobsWG.Done()
	je.run.stream(je.publish)
	je.mu.Lock()
	je.finished = true
	for ch := range je.subs {
		close(ch)
	}
	je.subs = nil
	je.mu.Unlock()
	// Persist the outcome: the record, created in state "running",
	// is re-written with the terminal state and result — this is what
	// a durable store serves after a restart, and what distinguishes
	// a finished job from one interrupted by a crash.
	r.persistJobFinal(je)
	r.jobEnded(je)
}

// publish fans one frame out to every subscriber with per-subscriber
// conflation and keeps it as the latest, for late joiners.
func (je *jobEntry) publish(e Event) {
	je.mu.Lock()
	defer je.mu.Unlock()
	je.latest, je.hasLatest = e, true
	for ch := range je.subs {
		conflatedSend(ch, e)
	}
}

// abort ends a run that never got its pump: cancel it and drain its
// stream to the end.
func (je *jobEntry) abort() {
	je.cancel()
	je.run.stream(func(Event) {})
}

// hasSubscribers reports whether any event stream is attached.
func (je *jobEntry) hasSubscribers() bool {
	je.mu.Lock()
	defer je.mu.Unlock()
	return len(je.subs) > 0
}

// conflatedSend delivers e to ch without ever blocking: when the
// buffer is full the oldest frame is dropped to make room, exactly
// like Job.publish.
func conflatedSend(ch chan Event, e Event) {
	for {
		select {
		case ch <- e:
			return
		default:
		}
		select {
		case <-ch: // conflate: drop the oldest buffered frame
		default:
		}
	}
}

// subscribe registers a new conflated event channel, pre-seeded with
// the latest frame so a late joiner sees current state at once. It
// returns a nil channel once the run has finished (see closingStream).
// off detaches (idempotent; pump may concurrently close the channel).
func (je *jobEntry) subscribe() (<-chan Event, func()) {
	je.mu.Lock()
	defer je.mu.Unlock()
	if je.finished {
		return nil, nil
	}
	ch := make(chan Event, subscriberBuffer)
	if je.hasLatest {
		ch <- je.latest
	}
	if je.subs == nil {
		je.subs = make(map[chan Event]struct{})
	}
	je.subs[ch] = struct{}{}
	off := func() {
		je.mu.Lock()
		defer je.mu.Unlock()
		if _, ok := je.subs[ch]; ok {
			delete(je.subs, ch)
			close(ch)
		}
	}
	return ch, off
}

// closingStream is the event stream of a finished job, live or
// restored: a function of its status document alone. A race replays
// its final board; other kinds have no closing frame. The channel is
// already closed, so the caller goes straight on to the done event.
func closingStream(ji JobInfo) <-chan Event {
	ch := make(chan Event, 1)
	if ji.Race != nil {
		ch <- Event{Type: EventLeaderboard, Board: &ji.Race.Board}
	}
	close(ch)
	return ch
}

// info assembles the job's wire status from the live run.
func (je *jobEntry) info() JobInfo {
	ji := JobInfo{ID: je.id, SessionID: je.sessionID, State: JobRunning}
	je.run.fill(&ji)
	return ji
}
