package serve

import (
	"context"

	"repro"
)

// raceRun is a portfolio race job (Session.Race). Its frames are the
// race's conflated leaderboards as EventLeaderboard.
type raceRun struct{ *repro.RaceJob }

// startRace launches the race. The wire's standard config field
// configures the GA lanes when the spec carries none of its own.
func startRace(ctx context.Context, sess *repro.Session, req JobRequest) (run, error) {
	spec := *req.Race
	if spec.Config == nil {
		cfg := req.Config
		spec.Config = &cfg
	}
	rj, err := sess.Race(ctx, spec)
	if err != nil {
		return nil, err
	}
	return raceRun{rj}, nil
}

// Stop cancels every lane and waits. The partial leaderboard
// (best-so-far per lane) stays readable through fill.
func (r raceRun) Stop() { r.RaceJob.Stop() }

func (r raceRun) stream(publish func(Event)) {
	for b := range r.Board() {
		publish(Event{Type: EventLeaderboard, Board: &b})
	}
	<-r.Done() // the board stream may close just before the result is set
}

// fill reports the race's JobReport (total evaluations across lanes,
// aggregated engine counters) and its race section: the current
// leaderboard, plus the result once ended (partial for a stopped race
// — cut lanes keep their best-so-far). A race has no GAResult.
func (r raceRun) fill(ji *JobInfo) {
	ji.Report = r.Report()
	ji.Race = &RaceInfo{Board: r.Snapshot()}
	if ended(r) {
		res, err := r.Wait()
		ji.Race.Result = res
		settle(ji, err)
	}
}
