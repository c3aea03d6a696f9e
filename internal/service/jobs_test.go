package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/pass"
	"repro/internal/sdfio"
	"repro/internal/systems"
)

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestJobLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	text := graphText(t, systems.CDDAT())
	entries := []CompileOptions{
		{},                   // 0: default point
		{Strategy: "apgan"},  // 1: distinct digest
		{},                   // 2: duplicate of 0, shares its digest
		{Strategy: "nosuch"}, // 3: invalid enum, fails in normalization
	}

	// Submission answers 202 with a Location and a running (or, if the
	// runner already won the race, done) resource; no artifact work happens
	// on the request path.
	resp := postJSON(t, ts.http.URL+"/v1/jobs/grid", GridRequest{Graph: text, Entries: entries})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var job JobResource
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Total != len(entries) {
		t.Fatalf("job resource %+v lacks id/total", job)
	}
	if want := "/v1/jobs/" + job.ID; resp.Header.Get("Location") != want {
		t.Errorf("Location %q, want %q", resp.Header.Get("Location"), want)
	}

	fin, err := ts.cl.AwaitJob(job.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobStateDone || fin.Completed != 4 || fin.Failed != 1 {
		t.Fatalf("finished job %+v, want done with 4 completed / 1 failed", fin)
	}
	byIndex := map[int]JobEntryResult{}
	for _, r := range fin.Results {
		if _, dup := byIndex[r.Index]; dup {
			t.Fatalf("entry %d reported twice", r.Index)
		}
		byIndex[r.Index] = r
	}
	if len(byIndex) != 4 {
		t.Fatalf("%d entries reported, want 4", len(byIndex))
	}
	if byIndex[0].Digest == "" || byIndex[0].Digest != byIndex[2].Digest {
		t.Errorf("duplicate entries got digests %q / %q, want identical", byIndex[0].Digest, byIndex[2].Digest)
	}
	if byIndex[1].Digest == "" || byIndex[1].Digest == byIndex[0].Digest {
		t.Errorf("distinct option sets share digest %q", byIndex[1].Digest)
	}
	if e := byIndex[3].Error; e == nil || e.Reason != "bad_request" {
		t.Errorf("invalid entry error = %+v, want bad_request", byIndex[3].Error)
	}

	// Job results carry no artifact bytes; the digests resolve through the
	// node's content-addressed cache, byte-identical to the in-process
	// pipeline.
	parsed, err := sdfio.Parse(strings.NewReader(graphText(t, systems.CDDAT())))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1} {
		want, _, err := CompileArtifact(parsed, entries[idx])
		if err != nil {
			t.Fatal(err)
		}
		got, err := ts.cl.Artifact(byIndex[idx].Digest)
		if err != nil {
			t.Fatalf("artifact for entry %d: %v", idx, err)
		}
		if string(got) != string(want) {
			t.Errorf("entry %d artifact differs from in-process pipeline", idx)
		}
	}

	ts.mustMetric(t, `sdfd_job_entries_total{state="ok"}`, "3")
	ts.mustMetric(t, `sdfd_job_entries_total{state="error"}`, "1")

	// A second identical job is warm: the successes resolve as cache hits.
	job2, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: entries[:3]})
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := ts.cl.AwaitJob(job2.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fin2.Results {
		if !r.Cached {
			t.Errorf("rerun entry %d not served from cache", r.Index)
		}
	}
}

func TestJobLongPollAndPaging(t *testing.T) {
	ts := newTestServer(t, Config{})
	release := make(chan struct{})
	ts.srv.testHookCompileStart = func() { <-release }

	text := graphText(t, systems.CDDAT())
	entries := []CompileOptions{{}, {Strategy: "apgan"}, {Looping: "flat"}}
	job, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}

	// With the compile gated, an immediate poll sees a running job with no
	// terminal entries.
	snap, err := ts.cl.Job(job.ID, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != JobStateRunning || snap.Completed != 0 || len(snap.Results) != 0 {
		t.Fatalf("gated job snapshot %+v, want running with nothing terminal", snap)
	}

	// A long poll parks until the runner makes progress, then returns as
	// soon as any entry completes — well before the wait elapses.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	start := time.Now()
	polled, err := ts.cl.Job(job.ID, 10*time.Second, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if polled.Completed == 0 {
		t.Error("long poll returned with no progress")
	}
	if waited := time.Since(start); waited > 8*time.Second {
		t.Errorf("long poll blocked %v despite progress", waited)
	}

	fin, err := ts.cl.AwaitJob(job.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Failed != 0 || fin.Completed != len(entries) {
		t.Fatalf("job finished %+v, want all %d ok", fin, len(entries))
	}

	// Paging by entry index: offset skips below, limit caps the page, and
	// the offset is echoed for cursoring.
	page, err := ts.cl.Job(job.ID, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Offset != 1 || len(page.Results) != 1 || page.Results[0].Index != 1 {
		t.Fatalf("page offset=1 limit=1 = %+v, want exactly entry 1", page)
	}
	if tail, err := ts.cl.Job(job.ID, 0, len(entries), 0); err != nil {
		t.Fatal(err)
	} else if len(tail.Results) != 0 {
		t.Errorf("page past the end returned %d results", len(tail.Results))
	}
}

func TestJobValidation(t *testing.T) {
	ts := newTestServer(t, Config{JobMaxEntries: 2})
	text := graphText(t, systems.CDDAT())

	get := func(path string) int {
		resp, err := http.Get(ts.http.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/v1/jobs/nope"); got != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", got)
	}

	job, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: []CompileOptions{{}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"?wait=-5s", "?wait=bogus", "?offset=-1", "?offset=x", "?limit=-2"} {
		if got := get("/v1/jobs/" + job.ID + q); got != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", q, got)
		}
	}

	for name, req := range map[string]GridRequest{
		"no entries":   {Graph: text},
		"over the cap": {Graph: text, Entries: []CompileOptions{{}, {Strategy: "apgan"}, {Looping: "flat"}}},
		"bad graph":    {Graph: "not sdf", Entries: []CompileOptions{{}}},
	} {
		resp := postJSON(t, ts.http.URL+"/v1/jobs/grid", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestJobAdmissionCap(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobs: 1})
	release := make(chan struct{})
	ts.srv.testHookCompileStart = func() { <-release }
	text := graphText(t, systems.CDDAT())

	job, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: []CompileOptions{{}}})
	if err != nil {
		t.Fatal(err)
	}

	// The second submission is shed with the queue_full envelope while the
	// first is still running.
	resp := postJSON(t, ts.http.URL+"/v1/jobs/grid", GridRequest{Graph: text, Entries: []CompileOptions{{Strategy: "apgan"}}})
	var envelope struct {
		Error *APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || envelope.Error == nil || envelope.Error.Reason != "queue_full" {
		t.Fatalf("second submit: status %d error %+v, want 429 queue_full", resp.StatusCode, envelope.Error)
	}
	ts.mustMetric(t, `sdfd_load_shed_total{reason="jobs_full"}`, "1")

	close(release)
	if _, err := ts.cl.AwaitJob(job.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Capacity freed: submission admits again.
	if _, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: []CompileOptions{{Looping: "flat"}}}); err != nil {
		t.Fatalf("submit after the first job finished: %v", err)
	}
}

// TestJobRetentionSkipsRunningJobs pins that retention evicts the oldest
// finished jobs past the cap even when an older job is still running: one
// long job must not pin every finished job submitted after it.
func TestJobRetentionSkipsRunningJobs(t *testing.T) {
	st := newJobStore()
	running := st.create(1)
	for i := 0; i < 1000; i++ {
		st.create(1).complete(JobEntryResult{Index: 0})
	}
	if len(st.jobs) > jobRetention || len(st.order) != len(st.jobs) {
		t.Errorf("%d jobs retained (%d ordered), want at most %d", len(st.jobs), len(st.order), jobRetention)
	}
	if st.get(running.id) == nil {
		t.Error("the running job was evicted")
	}
}

// TestShedCountsOnlyRefusedRequests: an accepted job whose entries all miss
// the compile deadline refuses no request, so sdfd_load_shed_total stays
// untouched; a compile request that misses it is refused and counts once.
func TestShedCountsOnlyRefusedRequests(t *testing.T) {
	ts := newTestServer(t, Config{CompileTimeout: time.Nanosecond})
	text := graphText(t, systems.SatelliteReceiver())
	var entries []CompileOptions
	for _, strategy := range []string{"rpmc", "apgan"} {
		for _, looping := range []string{"sdppo", "dppo", "chain", "flat"} {
			entries = append(entries, CompileOptions{Strategy: strategy, Looping: looping})
		}
	}
	job, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := ts.cl.AwaitJob(job.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobStateDone || fin.Failed != len(entries) {
		t.Fatalf("job finished %+v, want every entry failed on the deadline", fin)
	}
	for _, r := range fin.Results {
		if r.Error == nil || r.Error.Reason != "deadline" {
			t.Fatalf("entry %d: error %+v, want deadline", r.Index, r.Error)
		}
	}
	if got := ts.metricValue(t, `sdfd_load_shed_total{reason="deadline"}`); got != "" && got != "0" {
		t.Fatalf("an accepted job counted %s deadline sheds, want none", got)
	}

	resp := postJSON(t, ts.http.URL+"/v1/compile", CompileRequest{Graph: text})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("compile status %d, want 408", resp.StatusCode)
	}
	ts.mustMetric(t, `sdfd_load_shed_total{reason="deadline"}`, "1")
}

// TestJobFollowingRefusedCompileCompletes: a job entry that waits on the
// flight of a compile whose plan the admission pool then refuses joins the
// digest again and compiles it. The refusal answers the compile alone.
func TestJobFollowingRefusedCompileCompletes(t *testing.T) {
	ts := newTestServer(t, Config{})
	sys := systems.SatelliteReceiver()
	text := graphText(t, sys)
	g, canonical, apiErr := parseGraph(text)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	// The compile leads its flight through the resolver as handleCompile
	// does, holds it open until the job follows, and is then refused as a
	// full queue refuses it.
	entered, refuse := make(chan struct{}), make(chan struct{})
	var compiled entryResult
	leaderErr := make(chan *APIError, 1)
	go func() {
		_, _, _, err := ts.srv.resolveGrid(context.Background(), g, canonical, []CompileOptions{{}}, false, false, gridHooks{
			exec:   func(func()) error { close(entered); <-refuse; return par.ErrPoolFull },
			ran:    func([]pass.KindCount) {},
			report: func(_ int, res entryResult) { compiled = res },
		})
		leaderErr <- err
	}()
	<-entered
	job, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: []CompileOptions{{}}})
	if err != nil {
		close(refuse)
		t.Fatal(err)
	}
	// The job's entry has missed the cache once it counts its miss; it
	// joins the flight right after.
	for deadline := time.Now().Add(10 * time.Second); ts.metricValue(t, "sdfd_cache_misses_total") != "2"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(refuse)
			t.Fatal("the job entry never missed the cache")
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(refuse)
	if err := <-leaderErr; err == nil || err.Reason != "queue_full" {
		t.Fatalf("compile error %+v, want queue_full", err)
	}
	if compiled.Error == nil || compiled.Error.Reason != "queue_full" {
		t.Fatalf("compile result %+v, want queue_full", compiled.Error)
	}

	fin, err := ts.cl.AwaitJob(job.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobStateDone || fin.Failed != 0 || len(fin.Results) != 1 {
		t.Fatalf("job finished %+v, want its entry compiled", fin)
	}
	want, _, err := CompileArtifact(sys, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	digest := mustDigest(t, sys)
	if r := fin.Results[0]; r.Error != nil || r.Digest != digest {
		t.Fatalf("job entry %+v, want digest %s", r, digest)
	}
	got, err := ts.cl.Artifact(digest)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("artifact %v: bytes differ from the in-process pipeline", err)
	}
	ts.mustMetric(t, "sdfd_grid_runs_total", "1")
}

// TestJobFollowerHardCloseShutsDown: a job entry waiting on another
// request's flight when a hard Close cancels the server completes with the
// shutdown error, not a request deadline.
func TestJobFollowerHardCloseShutsDown(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ts := &testServer{srv: srv, http: hs, cl: &Client{BaseURL: hs.URL}}
	text := graphText(t, systems.SatelliteReceiver())
	g, canonical, apiErr := parseGraph(text)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		ts.srv.resolveGrid(context.Background(), g, canonical, []CompileOptions{{}}, false, false, gridHooks{
			exec:   func(func()) error { close(entered); <-release; return par.ErrPoolClosed },
			ran:    func([]pass.KindCount) {},
			report: func(int, entryResult) {},
		})
	}()
	<-entered
	defer func() { close(release); <-leaderDone }()
	job, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: []CompileOptions{{}}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ts.metricValue(t, "sdfd_cache_misses_total") != "2"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the job entry never missed the cache")
		}
	}
	time.Sleep(50 * time.Millisecond)
	ts.srv.Close()
	fin, err := ts.cl.Job(job.ID, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobStateDone || fin.Failed != 1 {
		t.Fatalf("job %+v, want its entry failed by the shutdown", fin)
	}
	if e := fin.Results[0].Error; e == nil || e.Reason != "shutting_down" {
		t.Fatalf("entry error %+v, want shutting_down", e)
	}
}
