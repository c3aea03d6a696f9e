package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pass"
	"repro/internal/regularity"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/systems"
)

// exampleSystems mirrors the repository's six example programs: quickstart,
// fir, filterbank, satellite, homogeneous, and cddat.
func exampleSystems() []*sdf.Graph {
	quick := sdf.New("quickstart")
	a := quick.AddActor("A")
	b := quick.AddActor("B")
	c := quick.AddActor("C")
	quick.AddEdge(a, b, 3, 2, 0)
	quick.AddEdge(b, c, 5, 7, 0)
	return []*sdf.Graph{
		quick,
		regularity.FIR(8),
		systems.OneSidedFilterbank(4, systems.Ratio23),
		systems.SatelliteReceiver(),
		systems.Homogeneous(4, 4),
		systems.CDDAT(),
	}
}

func graphText(t *testing.T, g *sdf.Graph) string {
	t.Helper()
	s, err := sdfio.CanonicalString(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testServer couples a Server with an httptest frontend and a client.
type testServer struct {
	srv  *Server
	http *httptest.Server
	cl   *Client
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &testServer{srv: srv, http: ts, cl: &Client{BaseURL: ts.URL}}
}

// metricValue scrapes /metrics and returns the value line for an exact
// series name (labels included), or "" when absent.
func (ts *testServer) metricValue(t *testing.T, series string) string {
	t.Helper()
	resp, err := http.Get(ts.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest
		}
	}
	return ""
}

func (ts *testServer) mustMetric(t *testing.T, series, want string) {
	t.Helper()
	if got := ts.metricValue(t, series); got != want {
		t.Errorf("metric %s = %q, want %q", series, got, want)
	}
}

func TestCompileArtifactEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := CompileRequest{
		Graph:   graphText(t, systems.CDDAT()),
		Options: CompileOptions{Strategy: "apgan", EmitC: true, EmitVHDL: true},
	}
	resp, err := ts.cl.Compile(req, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || resp.Digest == "" {
		t.Fatalf("first compile: cached=%v digest=%q", resp.Cached, resp.Digest)
	}
	var art Artifact
	if err := json.Unmarshal(resp.Artifact, &art); err != nil {
		t.Fatal(err)
	}
	if art.Graph != "cddat" || art.Schedule == "" || art.C == "" || art.VHDL == "" {
		t.Fatalf("artifact incomplete: graph=%q schedule=%q len(C)=%d len(VHDL)=%d",
			art.Graph, art.Schedule, len(art.C), len(art.VHDL))
	}
	if art.Metrics.SharedTotal <= 0 || art.Metrics.SharedTotal > art.Metrics.NonSharedBufMem {
		t.Fatalf("implausible totals: shared=%d non-shared=%d",
			art.Metrics.SharedTotal, art.Metrics.NonSharedBufMem)
	}

	// Artifact fetch must be byte-identical to the inline artifact, and
	// byte-identical across fetches.
	fetch1, err := ts.cl.Artifact(resp.Digest)
	if err != nil {
		t.Fatal(err)
	}
	fetch2, err := ts.cl.Artifact(resp.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetch1, []byte(resp.Artifact)) || !bytes.Equal(fetch1, fetch2) {
		t.Fatal("artifact bytes differ between inline response and fetches")
	}

	// A second identical POST is a cache hit carrying the same bytes, and
	// the pipeline-invocation counter proves nothing re-ran.
	resp2, err := ts.cl.Compile(req, false)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || !bytes.Equal(resp2.Artifact, resp.Artifact) || resp2.Digest != resp.Digest {
		t.Fatalf("warm hit: cached=%v identical=%v", resp2.Cached, bytes.Equal(resp2.Artifact, resp.Artifact))
	}
	ts.mustMetric(t, "sdfd_pipeline_runs_total", "1")
	ts.mustMetric(t, "sdfd_cache_hits_total", "1")
	ts.mustMetric(t, "sdfd_cache_misses_total", "1")
	ts.mustMetric(t, "sdfd_cache_entries", "1")

	// A verifying compile skips the cache: it counts neither a hit nor a
	// miss.
	if _, err := ts.cl.Compile(req, true); err != nil {
		t.Fatal(err)
	}
	ts.mustMetric(t, "sdfd_pipeline_runs_total", "2")
	ts.mustMetric(t, "sdfd_cache_hits_total", "1")
	ts.mustMetric(t, "sdfd_cache_misses_total", "1")
}

func TestConcurrent64AcrossExampleSystems(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	graphs := exampleSystems()
	texts := make([]string, len(graphs))
	for i, g := range graphs {
		texts[i] = graphText(t, g)
	}
	const n = 64
	type result struct {
		idx  int
		resp *CompileResponse
		err  error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.cl.Compile(CompileRequest{Graph: texts[i%len(texts)]}, false)
			results[i] = result{idx: i % len(texts), resp: resp, err: err}
		}(i)
	}
	wg.Wait()
	byDigest := map[int]string{}
	artifacts := map[int][]byte{}
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("system %d: %v", r.idx, r.err)
		}
		if prev, ok := byDigest[r.idx]; ok && prev != r.resp.Digest {
			t.Fatalf("system %d produced two digests", r.idx)
		}
		byDigest[r.idx] = r.resp.Digest
		if prev, ok := artifacts[r.idx]; ok && !bytes.Equal(prev, r.resp.Artifact) {
			t.Fatalf("system %d produced non-identical artifacts", r.idx)
		}
		artifacts[r.idx] = r.resp.Artifact
	}
	// 64 requests over 6 systems ran the pipeline exactly 6 times: every
	// duplicate either hit the cache or coalesced onto an open flight.
	ts.mustMetric(t, "sdfd_pipeline_runs_total", fmt.Sprint(len(graphs)))
}

func TestSingleflightCollapsesDuplicates(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	ts.srv.testHookCompileStart = func() {
		started <- struct{}{}
		<-release
	}
	text := graphText(t, systems.SatelliteReceiver())

	const dup = 8
	responses := make([]*CompileResponse, dup)
	errs := make([]error, dup)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i], errs[i] = ts.cl.Compile(CompileRequest{Graph: text}, false)
		}()
	}
	launch(0)
	<-started // leader's pipeline job is now running (and blocked)
	for i := 1; i < dup; i++ {
		launch(i)
	}
	// Give the followers time to reach the flight join; none of them may
	// start a second pipeline job.
	select {
	case <-started:
		t.Fatal("duplicate in-flight request started a second pipeline run")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	wg.Wait()

	coalesced := 0
	for i := 0; i < dup; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(responses[i].Artifact, responses[0].Artifact) {
			t.Fatalf("request %d artifact differs", i)
		}
		if responses[i].Coalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Error("no request reported coalescing onto the open flight")
	}
	ts.mustMetric(t, "sdfd_pipeline_runs_total", "1")
}

func TestLoadShedding(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	ts.srv.testHookCompileStart = func() {
		started <- struct{}{}
		<-release
	}
	graphs := exampleSystems()

	var wg sync.WaitGroup
	compileAsync := func(g *sdf.Graph) {
		text := graphText(t, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ts.cl.Compile(CompileRequest{Graph: text}, false); err != nil {
				t.Errorf("%s: %v", g.Name, err)
			}
		}()
	}
	compileAsync(graphs[0])
	<-started // worker busy
	compileAsync(graphs[1])
	// Wait until the second job occupies the single queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for ts.srv.pool.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second compile never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Pool saturated: worker busy + queue full. The third distinct compile
	// must shed with 429, a Retry-After hint, and a structured body.
	resp, err := http.Post(ts.http.URL+"/v1/compile", "application/json",
		strings.NewReader(fmt.Sprintf(`{"graph":%q}`, graphText(t, graphs[2]))))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated compile: status %d, body %s", resp.StatusCode, body[:n])
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", resp.Header.Get("Retry-After"))
	}
	var envelope struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(body[:n], &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("unstructured shed body: %s", body[:n])
	}
	if envelope.Error.Reason != "queue_full" || envelope.Error.RetryAfterSeconds != 2 {
		t.Errorf("shed error = %+v", envelope.Error)
	}

	// A shed compile must leave no cache entry behind.
	shedDigest := mustDigest(t, graphs[2])
	if _, err := ts.cl.Artifact(shedDigest); !isStatus(err, http.StatusNotFound) {
		t.Errorf("shed request left a cache entry (artifact err = %v)", err)
	}

	close(release)
	wg.Wait()
	if got := ts.metricValue(t, `sdfd_load_shed_total{reason="queue_full"}`); got != "1" {
		t.Errorf("queue_full shed count = %q, want 1", got)
	}
}

// TestGridLoadShedding pins the /v1/grid admission contract the sdfload
// harness depends on: under queue exhaustion a grid request is rejected
// with a structured 429, reason queue_full, and a Retry-After hint — the
// exact shape load.ClassifyStatus files as a shed (not an error), so below
// the knee a saturated queue never counts against the zero-error SLO.
// (The 429 -> shed mapping itself is pinned in internal/load's tests; this
// side pins that grid emits the shape.)
func TestGridLoadShedding(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	ts.srv.testHookCompileStart = func() {
		started <- struct{}{}
		<-release
	}
	graphs := exampleSystems()

	// LIFO: release the held workers first, then wait for them to drain.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer func() { close(release) }()
	compileAsync := func(g *sdf.Graph) {
		text := graphText(t, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ts.cl.Compile(CompileRequest{Graph: text}, false); err != nil {
				t.Errorf("%s: %v", g.Name, err)
			}
		}()
	}
	compileAsync(graphs[0])
	<-started // worker busy
	compileAsync(graphs[1])
	deadline := time.Now().Add(2 * time.Second)
	for ts.srv.pool.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second compile never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Worker busy + queue full: the grid request must shed, not wait.
	gridBody, err := json.Marshal(GridRequest{
		Graph: graphText(t, graphs[3]),
		Entries: []CompileOptions{
			{Strategy: "rpmc", Looping: "sdppo"},
			{Strategy: "apgan", Looping: "dppo"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.http.URL+"/v1/grid", "application/json", bytes.NewReader(gridBody))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated grid: status %d, body %s", resp.StatusCode, body[:n])
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", resp.Header.Get("Retry-After"))
	}
	var envelope struct {
		Error *APIError `json:"error"`
	}
	if err := json.Unmarshal(body[:n], &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("unstructured grid shed body: %s", body[:n])
	}
	if envelope.Error.Reason != "queue_full" || envelope.Error.RetryAfterSeconds != 2 {
		t.Errorf("grid shed error = %+v", envelope.Error)
	}
	if envelope.Error.Status != http.StatusTooManyRequests {
		t.Errorf("grid shed body status = %d, want 429", envelope.Error.Status)
	}
}

func TestRequestDeadline(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	ts.srv.testHookCompileStart = func() { <-release }
	g := systems.CDDAT()
	digest := mustDigest(t, g)

	_, err := ts.cl.Compile(CompileRequest{Graph: graphText(t, g)}, false)
	if !isStatus(err, http.StatusRequestTimeout) {
		t.Fatalf("blocked compile returned %v, want 408", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Reason != "deadline" {
		t.Fatalf("deadline error = %v", err)
	}
	// The timed-out request left no partial cache entry...
	if _, err := ts.cl.Artifact(digest); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("partial cache entry after deadline (artifact err = %v)", err)
	}
	// ...but the abandoned flight still completes and caches, so the next
	// request becomes a warm hit.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := ts.cl.Artifact(digest); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never populated the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := ts.cl.Compile(CompileRequest{Graph: graphText(t, g)}, false)
	if err != nil || !resp.Cached {
		t.Fatalf("post-deadline compile: cached=%v err=%v", resp != nil && resp.Cached, err)
	}
}

func TestVerifyQueryRunsOracle(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := CompileRequest{Graph: graphText(t, systems.CDDAT())}
	resp, err := ts.cl.Compile(req, true)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Verified {
		t.Fatal("verify=1 response not marked verified")
	}
	// The verified compile populated the cache; a plain request hits it.
	resp2, err := ts.cl.Compile(req, false)
	if err != nil || !resp2.Cached {
		t.Fatalf("after verify: cached=%v err=%v", resp2 != nil && resp2.Cached, err)
	}
	if !bytes.Equal(resp.Artifact, resp2.Artifact) {
		t.Fatal("verified and cached artifacts differ")
	}
}

func TestStructuredRequestErrors(t *testing.T) {
	ts := newTestServer(t, Config{MaxRequestBytes: 512})
	post := func(body string, verify bool) (int, *APIError) {
		t.Helper()
		url := ts.http.URL + "/v1/compile"
		if verify {
			url += "?verify=1"
		}
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var envelope struct {
			Error *APIError `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		return resp.StatusCode, envelope.Error
	}

	if code, e := post("{not json", false); code != http.StatusBadRequest || e == nil || e.Reason != "bad_request" {
		t.Errorf("malformed JSON: %d %+v", code, e)
	}
	if code, _ := post(`{"graph":"graph g\nbogus\n"}`, false); code != http.StatusBadRequest {
		t.Errorf("bad graph text: %d", code)
	}
	if code, _ := post(`{"graph":"graph g\nedge A B 1 1 0\n","options":{"strategy":"zigzag"}}`, false); code != http.StatusBadRequest {
		t.Errorf("bad strategy: %d", code)
	}
	big := strings.Repeat("x", 600)
	if code, e := post(fmt.Sprintf(`{"graph":%q}`, big), false); code != http.StatusRequestEntityTooLarge || e == nil || e.Reason != "too_large" {
		t.Errorf("oversized body: %d %+v", code, e)
	}
	// An inconsistent (unbalanceable) graph compiles to a structured 422.
	if code, e := post(`{"graph":"graph g\nedge A B 2 3 0\nedge A B 3 2 0\n"}`, false); code != http.StatusUnprocessableEntity || e == nil || e.Reason != "compile_failed" {
		t.Errorf("inconsistent graph: %d %+v", code, e)
	}

	resp, err := http.Get(ts.http.URL + "/v1/artifact/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact: %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	if err := ts.cl.Healthz(); err != nil {
		t.Fatal(err)
	}
}

func mustDigest(t *testing.T, g *sdf.Graph) string {
	t.Helper()
	canonical, err := sdfio.CanonicalString(g)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return Digest(canonical, norm)
}

func isStatus(err error, status int) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// TestPlannedCompileStageMetrics: a daemon without a node store compiles
// through the same single-point plan as one with a store, so
// sdfd_stage_seconds carries exactly the pass-kind labels — one
// observation per executed node — and the artifact bytes equal the direct
// CompileArtifact reference.
func TestPlannedCompileStageMetrics(t *testing.T) {
	ts := newTestServer(t, Config{})
	g := systems.SatelliteReceiver()
	opts := CompileOptions{Partitions: 2, Verify: true}
	resp, err := ts.cl.Compile(CompileRequest{Graph: graphText(t, g), Options: opts}, false)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := CompileArtifact(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(resp.Artifact), want) {
		t.Fatal("storeless daemon artifact differs from CompileArtifact")
	}

	httpResp, err := http.Get(ts.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `sdfd_stage_seconds_count{stage="`); ok {
			label, value, _ := strings.Cut(rest, `"} `)
			counts[label] = value
		}
		if rest, ok := strings.CutPrefix(line, "# HELP sdfd_stage_seconds "); ok {
			for _, k := range pass.Kinds() {
				if !strings.Contains(rest, k.String()) {
					t.Errorf("sdfd_stage_seconds help %q does not name label %q", rest, k)
				}
			}
			if strings.Contains(rest, "codegen") {
				t.Errorf("sdfd_stage_seconds help %q advertises a codegen label nothing emits", rest)
			}
		}
	}
	// The wire defaults try two allocators: one alloc node each.
	wantCounts := map[string]string{
		"repetitions": "1", "order": "1", "schedule": "1", "lifetimes": "1",
		"alloc": "2", "partition": "1", "segalloc": "1", "assemble": "1",
	}
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Errorf("sdfd_stage_seconds counts by label = %v, want %v", counts, wantCounts)
	}
}
