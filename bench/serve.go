package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/clump"
	"repro/serve"
)

// serveWorkload is the serve-jobs input: a few preset studies, one
// session each, and a small pool of jobs over them that the two
// closed-loop clients cycle through. Several studies average out how
// much a job's cost depends on the study it searches.
type serveWorkload struct {
	datasetSeeds []uint64
	pool         []serveJob
	cfg          repro.GAConfig
	clients      int
}

// serveJob is one pool entry: a GA seed on one study's session.
type serveJob struct {
	study int
	seed  uint64
}

func newServeWorkload(p params) *serveWorkload {
	w := &serveWorkload{
		// Every job runs exactly MaxGenerations generations (the
		// stagnation stop lies beyond it), so jobs cost the same
		// whatever the seed.
		cfg: repro.GAConfig{
			MinSize: 2, MaxSize: 3,
			PopulationSize:      24,
			StagnationLimit:     1000,
			ImmigrantStagnation: 5,
			MaxGenerations:      30,
		},
		clients: 2,
	}
	for i := range 4 {
		w.datasetSeeds = append(w.datasetSeeds, mix(p.seed, i))
	}
	for i := range 24 {
		w.pool = append(w.pool, serveJob{study: i % len(w.datasetSeeds), seed: mix(p.seed, 100+i)})
	}
	return w
}

func (w *serveWorkload) config(seed uint64) repro.GAConfig {
	cfg := w.cfg
	cfg.Seed = seed
	return cfg
}

// server is one in-process ldserve on a loopback listener, with the
// default discard store and the /metrics endpoint ldserve enables by
// default, plus one client session per study whose cache the warm-up
// filled.
type server struct {
	reg        *serve.Registry
	hs         *http.Server
	served     chan error
	transport  *http.Transport
	client     *serve.Client
	sessionIDs []string
	// warm holds each pool job's warm-up result as JSON.
	warm []string
}

func startServer(ctx context.Context, w *serveWorkload) (*server, error) {
	reg := serve.NewRegistry(serve.RegistryConfig{})
	srv, err := serve.NewServer(reg, serve.WithMetrics())
	if err != nil {
		reg.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &server{
		reg:       reg,
		hs:        &http.Server{Handler: srv},
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 4 * w.clients},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = serve.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: s.transport})
	for _, seed := range w.datasetSeeds {
		ds, err := s.client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: seed})
		if err != nil {
			s.close()
			return nil, err
		}
		sess, err := s.client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
		if err != nil {
			s.close()
			return nil, err
		}
		s.sessionIDs = append(s.sessionIDs, sess.ID)
	}
	for _, job := range w.pool {
		c, err := s.cycle(ctx, w, job)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		s.warm = append(s.warm, c.result)
	}
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // the registry close below stops whatever is left
	<-s.served
	s.reg.Close()
	s.transport.CloseIdleConnections()
}

// cycle is one client job: POST the job, stream its events to done,
// GET it. Times are the three calls' boundaries.
type cycle struct {
	t0, t1, t2, t3 time.Time
	result         string // the GET's GAResult as JSON
}

func (s *server) cycle(ctx context.Context, w *serveWorkload, j serveJob) (cycle, error) {
	var c cycle
	c.t0 = time.Now()
	job, err := s.client.StartJob(ctx, s.sessionIDs[j.study], serve.JobRequest{Config: w.config(j.seed)})
	c.t1 = time.Now()
	if err != nil {
		return c, fmt.Errorf("POST job: %w", err)
	}
	done, err := s.client.StreamEvents(ctx, job.ID, func(serve.Event) error { return nil })
	c.t2 = time.Now()
	if err != nil {
		return c, fmt.Errorf("events of %s: %w", job.ID, err)
	}
	got, err := s.client.Job(ctx, job.ID)
	c.t3 = time.Now()
	if err != nil {
		return c, fmt.Errorf("GET %s: %w", job.ID, err)
	}
	if done == nil || done.State != serve.JobDone || got.State != serve.JobDone || got.Result == nil {
		return c, fmt.Errorf("job %s did not finish done", job.ID)
	}
	b, err := json.Marshal(got.Result)
	if err != nil {
		return c, err
	}
	c.result = string(b)
	if !sameJSON(done.Result, got.Result) {
		return c, fmt.Errorf("job %s: done event and GET disagree on the result", job.ID)
	}
	return c, nil
}

// servePass is one closed-loop measured phase.
type servePass struct {
	cycles   []cycle
	jobs     []int // pool index of each cycle
	failed   int64
	problems []string
	start    time.Time
	wall     time.Duration
	alloc    uint64
	before   serve.MetricsInfo
	after    serve.MetricsInfo
}

// serveMeasure runs the clients in a closed loop for the given time:
// each sends its next job only after the previous one's GET returned.
func serveMeasure(ctx context.Context, s *server, w *serveWorkload, seconds float64) (servePass, error) {
	var pass servePass
	var err error
	if pass.before, err = s.client.Metrics(ctx); err != nil {
		return pass, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	alloc := allocBytes()
	pass.start = time.Now()
	stop := pass.start.Add(time.Duration(seconds * float64(time.Second)))
	for i := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; time.Now().Before(stop) && ctx.Err() == nil; j++ {
				job := (i + w.clients*j) % len(w.pool)
				c, err := s.cycle(ctx, w, w.pool[job])
				mu.Lock()
				switch {
				case err != nil:
					pass.failed++
					pass.problems = append(pass.problems, err.Error())
				case c.result != s.warm[job]:
					pass.problems = append(pass.problems, fmt.Sprintf("pool job %d: result differs from its warm-up run", job))
				}
				pass.cycles = append(pass.cycles, c)
				pass.jobs = append(pass.jobs, job)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	pass.wall = time.Since(pass.start)
	pass.alloc = allocBytes() - alloc
	if pass.after, err = s.client.Metrics(ctx); err != nil {
		return pass, err
	}
	return pass, nil
}

// rate returns the median, over consecutive slices of rateSlice jobs
// in completion order, of each slice's jobs per second.
func (p servePass) rate() float64 {
	var done []time.Time
	for _, c := range p.cycles {
		if c.result != "" {
			done = append(done, c.t2)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	prev := p.start
	var rates []float64
	for i := rateSlice - 1; i < len(done); i += rateSlice {
		rates = append(rates, rateSlice/done[i].Sub(prev).Seconds())
		prev = done[i]
	}
	if len(rates) == 0 {
		return float64(len(done)) / p.wall.Seconds()
	}
	return median(rates)
}

// rateSlice is the number of jobs per throughput sample: about 0.3 s
// of the closed loop.
const rateSlice = 100

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// latencies returns the job (POST to done) and read (GET) latencies.
func (p servePass) latencies() (jobs, reads []float64) {
	for _, c := range p.cycles {
		if c.result == "" {
			continue
		}
		jobs = append(jobs, msBetween(c.t0, c.t2))
		reads = append(reads, msBetween(c.t2, c.t3))
	}
	return jobs, reads
}

func runServe(ctx context.Context, p params) (*outcome, error) {
	w := newServeWorkload(p)
	seconds := p.seconds
	if p.tiny {
		seconds = 0.5
	}
	s, setup, err := timeSetup(3, func() (*server, error) { return startServer(ctx, w) }, (*server).close)
	if err != nil {
		return nil, err
	}
	un, err := serveMeasure(ctx, s, w, seconds)
	s.close()
	if err != nil {
		return nil, err
	}
	jobs, _ := un.latencies()
	o := &outcome{attempted: int64(len(un.cycles)), failed: un.failed, problems: un.problems}
	o.checkf(un.after.Evaluations.Computed == un.before.Evaluations.Computed,
		"the measured phase computed %d evaluations; every job should be answered from the warm cache", un.after.Evaluations.Computed-un.before.Evaluations.Computed)
	o.e2e = map[string]float64{
		"setup_s":         setup,
		"ops_per_s":       un.rate(),
		"op_p50_ms":       percentile(append([]float64(nil), jobs...), 0.50),
		"op_p95_ms":       percentile(append([]float64(nil), jobs...), 0.95),
		"alloc_kb_per_op": float64(un.alloc) / 1024 / float64(max(len(jobs), 1)),
	}
	o.samples = fmt.Sprintf("%d jobs by %d clients, %.2f s measured", len(jobs), w.clients, un.wall.Seconds())
	if !p.trace {
		return o, nil
	}

	// Traced pass: a fresh server, the same warm-up and closed loop,
	// with a span around every client call.
	ts, err := startServer(ctx, w)
	if err != nil {
		return nil, err
	}
	tp, err := serveMeasure(ctx, ts, w, seconds)
	ts.close()
	if err != nil {
		return nil, err
	}
	o.attempted += int64(len(tp.cycles))
	o.failed += tp.failed
	o.problems = append(o.problems, tp.problems...)
	o.checkf(tp.before.Evaluations.Computed == un.before.Evaluations.Computed && tp.after.Evaluations.Computed == un.after.Evaluations.Computed,
		"traced server computed %d evaluations, untraced %d", tp.after.Evaluations.Computed, un.after.Evaluations.Computed)
	tr := &tracer{epoch: tp.start}
	at := func(t time.Time) int64 { return t.Sub(tr.epoch).Nanoseconds() }
	for i, c := range tp.cycles {
		if c.result == "" {
			continue
		}
		job := tr.newID()
		run := uint32(i + 1)
		tr.add(span{id: job, run: run, kind: kindJob, start: at(c.t0), end: at(c.t3)})
		tr.add(span{id: tr.newID(), parent: job, run: run, kind: kindPost, start: at(c.t0), end: at(c.t1)})
		tr.add(span{id: tr.newID(), parent: job, run: run, kind: kindStream, start: at(c.t1), end: at(c.t2)})
		tr.add(span{id: tr.newID(), parent: job, run: run, kind: kindGet, start: at(c.t2), end: at(c.t3)})
	}

	// The GA loop and the all-hit engine path are not reachable from
	// outside the server, so the same jobs are replayed in process on
	// a traced engine warmed the same way.
	replayed, report, err := replayJobs(ctx, tr, w, tp.jobs)
	if err != nil {
		return nil, err
	}
	o.spans = tr.snapshot()
	generations := 0
	for _, r := range replayed {
		generations += r.Generations
	}
	o.layer = layerMetrics(layerInput{spans: o.spans, workers: 2, measured: tp.wall, report: report, ga: true, generations: generations})
	ev := func(m serve.MetricsInfo) serve.EngineTotals { return m.Evaluations }
	requests := ev(tp.after).Requests - ev(tp.before).Requests
	o.layer["engine.requests"] = float64(requests)
	o.layer["engine.computed"] = float64(ev(tp.after).Computed - ev(tp.before).Computed)
	o.layer["engine.coalesced"] = float64(ev(tp.after).Coalesced - ev(tp.before).Coalesced)
	if requests > 0 {
		o.layer["engine.hit_ratio"] = float64(ev(tp.after).CacheHits-ev(tp.before).CacheHits) / float64(requests)
	}
	o.layer["ga.best_fitness"], o.layer["ga.evals_to_best"] = searchQuality(replayed)

	tjobs, treads := tp.latencies()
	var posts, streams, gets []float64
	for _, c := range tp.cycles {
		if c.result != "" {
			posts = append(posts, msBetween(c.t0, c.t1))
			streams = append(streams, msBetween(c.t1, c.t2))
			gets = append(gets, msBetween(c.t2, c.t3))
		}
	}
	o.layer["serve.post_job_ms"] = median(posts)
	o.layer["serve.stream_ms"] = median(streams)
	o.layer["serve.get_job_ms"] = median(gets)
	o.layer["serve.job_p99_ms"] = percentile(append([]float64(nil), tjobs...), 0.99)
	o.layer["serve.read_p50_ms"] = percentile(append([]float64(nil), treads...), 0.50)
	o.layer["serve.read_p99_ms"] = percentile(append([]float64(nil), treads...), 0.99)
	o.layer["serve.server_p50_ms"] = histQuantile(tp.before.Latency, tp.after.Latency, 0.50)
	o.layer["serve.server_p99_ms"] = histQuantile(tp.before.Latency, tp.after.Latency, 0.99)
	o.layer["serve.alloc_kb_per_job"] = float64(tp.alloc) / 1024 / float64(max(len(tjobs), 1))
	if len(tjobs) > 0 && len(jobs) > 0 {
		o.layer["trace.overhead_pct"] = (float64(len(jobs))/un.wall.Seconds()/(float64(len(tjobs))/tp.wall.Seconds()) - 1) * 100
	}
	return o, nil
}

// replayJobs runs the given pool jobs in process through sessions over
// traced engines of the same studies, after warming their caches with
// the whole pool as the server's warm-up does; only the replay is
// traced. It returns the replayed results and the replay's engine
// counters.
func replayJobs(ctx context.Context, tr *tracer, w *serveWorkload, jobs []int) ([]*repro.GAResult, repro.EngineReport, error) {
	var (
		stacks   []*tracedStack
		sessions []*repro.Session
	)
	defer func() {
		closeSessions(sessions)
		for _, st := range stacks {
			st.eng.Close()
		}
	}()
	warm := newTracer()
	for _, seed := range w.datasetSeeds {
		d, err := repro.Paper51Dataset(seed)
		if err != nil {
			return nil, repro.EngineReport{}, err
		}
		st, err := newTracedStack(warm, d, clump.T1, 2, nil)
		if err != nil {
			return nil, repro.EngineReport{}, err
		}
		stacks = append(stacks, st)
		sess, err := repro.NewSession(d, repro.WithEvaluator(st.top))
		if err != nil {
			return nil, repro.EngineReport{}, err
		}
		sessions = append(sessions, sess)
	}
	for _, job := range w.pool {
		if _, err := sessions[job.study].Run(ctx, repro.WithGAConfig(w.config(job.seed))); err != nil {
			return nil, repro.EngineReport{}, err
		}
	}
	report := func() (r repro.EngineReport) {
		for _, st := range stacks {
			addCounters(&r, st.eng.Report())
		}
		return r
	}
	before := report()
	for _, st := range stacks {
		st.eval.tr, st.top.tr = tr, tr
	}
	var results []*repro.GAResult
	for i, job := range jobs[:min(len(jobs), maxReplay)] {
		j := w.pool[job]
		end := stacks[j.study].begin(tr, uint32(1_000_000+i))
		res, err := sessions[j.study].Run(ctx, repro.WithGAConfig(w.config(j.seed)))
		end()
		if err != nil {
			return nil, repro.EngineReport{}, err
		}
		results = append(results, res)
	}
	after := report()
	after.Requests -= before.Requests
	after.Computed -= before.Computed
	after.CacheHits -= before.CacheHits
	after.Coalesced -= before.Coalesced
	return results, after, nil
}

// maxReplay bounds the in-process replay of the traced jobs.
const maxReplay = 400

// histQuantile returns the q-quantile in ms of the requests the server
// histogram counted between two snapshots, interpolated linearly within
// the bucket that holds it.
func histQuantile(before, after serve.LatencySummary, q float64) float64 {
	var total int64
	counts := make([]int64, len(after.Histogram))
	for i, b := range after.Histogram {
		counts[i] = b.Count
		if i < len(before.Histogram) {
			counts[i] -= before.Histogram[i].Count
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	lo := int64(0)
	for i, b := range after.Histogram {
		hi := b.UpToNS
		if hi == math.MaxInt64 {
			hi = lo * 2
		}
		if float64(seen+counts[i]) >= rank && counts[i] > 0 {
			frac := (rank - float64(seen)) / float64(counts[i])
			return (float64(lo) + frac*float64(hi-lo)) / 1e6
		}
		seen += counts[i]
		lo = b.UpToNS
	}
	return float64(lo) / 1e6
}
