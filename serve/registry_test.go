package serve_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/serve"
)

func testRegistry(t *testing.T, cfg serve.RegistryConfig) *serve.Registry {
	t.Helper()
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = -1 // no janitor; tests sweep explicitly
	}
	reg := serve.NewRegistry(cfg)
	t.Cleanup(reg.Close)
	return reg
}

// smallDatasetRequest returns a table upload of a small synthetic
// study, cheap enough for many registry tests.
func smallDatasetRequest(t *testing.T, seed uint64) serve.DatasetRequest {
	t.Helper()
	d, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: 14, NumAffected: 30, NumUnaffected: 30,
		RiskHaplotypeFreq: 0.3,
		Disease: repro.DiseaseModel{
			CausalSites: []int{3, 9}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	return serve.DatasetRequest{Format: serve.FormatTable, Content: buf.String()}
}

// waitJobDone polls until the job leaves the running state.
func waitJobDone(t *testing.T, reg *serve.Registry, id string) serve.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := reg.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if ji.State != serve.JobRunning {
			return ji
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRegistryDatasetDedup: identical uploads register once under the
// fingerprint-derived id.
func TestRegistryDatasetDedup(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	req := smallDatasetRequest(t, 9)
	a, err := reg.AddDataset(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.AddDataset(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("same content produced ids %s and %s", a.ID, b.ID)
	}
	other, err := reg.AddDataset(smallDatasetRequest(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == a.ID {
		t.Fatal("different content shares an id")
	}
}

// TestRegistryPEDUpload: the LINKAGE path parses and describes.
func TestRegistryPEDUpload(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	ped := "f1 1 0 0 0 2  1 1 1 2 2 2\n" +
		"f2 1 0 0 0 1  1 2 1 1 0 0\n"
	info, err := reg.AddDataset(serve.DatasetRequest{
		Format: serve.FormatPED, Content: ped, NumSNPs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumSNPs != 3 || info.NumIndividuals != 2 || info.Affected != 1 || info.Unaffected != 1 {
		t.Fatalf("ped dims %+v", info)
	}
	if _, err := reg.AddDataset(serve.DatasetRequest{Format: serve.FormatPED, Content: ped}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("ped without num_snps err = %v, want ErrBadConfig", err)
	}
}

// TestRegistrySharedBackendAcrossSessions: two sessions with the same
// dataset+backend+statistic+workers share one engine — work done
// through one session is visible (and reusable) in the other's stats.
func TestRegistrySharedBackendAcrossSessions(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg.StartJob(s1.ID, serve.JobRequest{Config: testGAConfig(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, reg, job.ID)
	st2, err := reg.Stats(s2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Engine == nil || st2.Engine.Computed == 0 {
		t.Fatalf("session 2 (no jobs) stats %+v: the shared backend's work should be visible", st2.Engine)
	}
	// A different worker count is a different backend: fresh counters.
	s3, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	st3, err := reg.Stats(s3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Engine == nil || st3.Engine.Computed != 0 {
		t.Fatalf("distinct backend key shares counters: %+v", st3.Engine)
	}
}

// TestRegistrySweepEviction: idle sessions are evicted after
// SessionTTL (taking their job records), the dataset after DatasetTTL
// more; a session with a running job survives any idle time.
func TestRegistrySweepEviction(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{
		SessionTTL: time.Minute,
		DatasetTTL: 2 * time.Minute,
	})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg.StartJob(sess.ID, serve.JobRequest{Config: testGAConfig(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, reg, job.ID)

	now := time.Now()
	if es, ed := reg.Sweep(now); es != 0 || ed != 0 {
		t.Fatalf("premature eviction: %d sessions, %d datasets", es, ed)
	}
	// Past SessionTTL: session (and its job record) go; dataset stays.
	if es, ed := reg.Sweep(now.Add(time.Minute + time.Second)); es != 1 || ed != 0 {
		t.Fatalf("Sweep evicted %d sessions, %d datasets; want 1, 0", es, ed)
	}
	if _, err := reg.Session(sess.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted session err = %v, want ErrNotFound", err)
	}
	if _, err := reg.Job(job.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted session's job err = %v, want ErrNotFound", err)
	}
	if _, err := reg.Dataset(ds.ID); err != nil {
		t.Fatalf("dataset evicted with its first sweep: %v", err)
	}
	// DatasetTTL counts from the last session's end.
	if es, ed := reg.Sweep(now.Add(time.Minute + 3*time.Minute)); es != 0 || ed != 1 {
		t.Fatalf("Sweep evicted %d sessions, %d datasets; want 0, 1", es, ed)
	}
	if _, err := reg.Dataset(ds.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted dataset err = %v, want ErrNotFound", err)
	}

	// A running job pins its session (and dataset) forever.
	ds2, err := reg.AddDataset(smallDatasetRequest(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds2.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job2, err := reg.StartJob(sess2.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	if es, _ := reg.Sweep(now.Add(24 * time.Hour)); es != 0 {
		t.Fatal("a session with a running job was evicted")
	}
	if _, err := reg.StopJob(job2.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDrain: BeginDrain cancels running jobs (partial results
// stay fetchable) and rejects new work while reads keep working.
func TestRegistryDrain(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := reg.StartJob(sess.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	// Let it complete a couple of generations before draining.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := reg.Job(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Report.Generation >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	reg.BeginDrain()
	ji := waitJobDone(t, reg, job.ID)
	if ji.State != serve.JobCanceled || ji.Result == nil || ji.Result.Generations < 2 {
		t.Fatalf("drained job %+v, want canceled with a partial result", ji)
	}
	if _, err := reg.AddDataset(smallDatasetRequest(t, 10)); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("AddDataset during drain err = %v, want ErrDraining", err)
	}
	if _, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("CreateSession during drain err = %v, want ErrDraining", err)
	}
	if _, err := reg.StartJob(sess.ID, serve.JobRequest{Config: testGAConfig(5)}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("StartJob during drain err = %v, want ErrDraining", err)
	}
	// Reads survive the drain: the partial result stays fetchable.
	if _, err := reg.Job(job.ID); err != nil {
		t.Fatalf("Job read during drain: %v", err)
	}
	if _, err := reg.Stats(sess.ID); err != nil {
		t.Fatalf("Stats read during drain: %v", err)
	}
}

// TestRegistryConcurrentStartsRespectLimit: GA and race starts racing
// for a session's slots never overshoot its limit — exactly the limit
// many start, the rest are busy — and the slots of the started jobs
// are free again once they are stopped.
func TestRegistryConcurrentStartsRespectLimit(t *testing.T) {
	const limit, starts = 2, 6
	reg := testRegistry(t, serve.RegistryConfig{MaxJobsPerSession: limit})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	var wg sync.WaitGroup
	ids := make(chan string, starts)
	errs := make(chan error, starts)
	for i := 0; i < starts; i++ {
		req := serve.JobRequest{Config: long}
		if i%2 == 1 {
			req.Race = &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "ga"}}}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ji, err := reg.StartJob(sess.ID, req)
			if err != nil {
				errs <- err
				return
			}
			ids <- ji.ID
		}()
	}
	wg.Wait()
	close(ids)
	close(errs)
	for err := range errs {
		if !errors.Is(err, repro.ErrSessionBusy) {
			t.Errorf("start err = %v, want ErrSessionBusy", err)
		}
	}
	var started []string
	for id := range ids {
		started = append(started, id)
	}
	si, err := reg.Session(sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != limit || si.ActiveJobs != limit {
		t.Errorf("%d of %d concurrent starts succeeded, ActiveJobs = %d; want %d each", len(started), starts, si.ActiveJobs, limit)
	}
	for _, id := range started {
		if _, err := reg.StopJob(id); err != nil {
			t.Fatal(err)
		}
	}
	if si, err = reg.Session(sess.ID); err != nil || si.ActiveJobs != 0 {
		t.Fatalf("after stopping every job ActiveJobs = %d (err %v), want 0", si.ActiveJobs, err)
	}
}
