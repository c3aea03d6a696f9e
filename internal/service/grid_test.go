package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sdfio"
	"repro/internal/systems"
)

func gridEntries() []CompileOptions {
	var entries []CompileOptions
	for _, strat := range []string{"apgan", "rpmc"} {
		for _, la := range []string{"sdppo", "dppo", "chain", "flat"} {
			entries = append(entries, CompileOptions{Strategy: strat, Looping: la})
		}
	}
	return entries
}

func TestGridEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.SatelliteReceiver())
	entries := gridEntries()
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(entries) {
		t.Fatalf("%d results for %d entries", len(resp.Results), len(entries))
	}
	if resp.PlannedNodes <= 0 || resp.PlannedNodes >= resp.NaiveNodes {
		t.Errorf("expected prefix sharing: planned %d, naive %d", resp.PlannedNodes, resp.NaiveNodes)
	}

	// Every entry's artifact must be byte-identical to a direct /v1/compile
	// of that entry — same digest, same bytes, and the grid run must have
	// warmed the single-compile cache.
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Fatalf("entry %d failed: %v", i, res.Error)
		}
		single, err := ts.cl.Compile(CompileRequest{Graph: graph, Options: entries[i]}, false)
		if err != nil {
			t.Fatalf("entry %d direct compile: %v", i, err)
		}
		if single.Digest != res.Digest {
			t.Errorf("entry %d: grid digest %s != compile digest %s", i, res.Digest, single.Digest)
		}
		if !single.Cached {
			t.Errorf("entry %d: grid did not warm the compile cache", i)
		}
		if !bytes.Equal(single.Artifact, res.Artifact) {
			t.Errorf("entry %d: grid artifact differs from direct compile", i)
		}
	}

	// Grid metrics: one planned run, node savings recorded.
	if got := ts.metricValue(t, "sdfd_grid_runs_total"); got != "1" {
		t.Errorf("sdfd_grid_runs_total = %q, want 1", got)
	}
	if got := ts.metricValue(t, "sdfd_grid_shared_nodes_total"); got == "" || got == "0" {
		t.Errorf("sdfd_grid_shared_nodes_total = %q, want > 0", got)
	}
	if got := ts.metricValue(t, `sdfd_grid_pass_nodes_total{kind="repetitions"}`); got != "1" {
		t.Errorf("repetitions pass nodes = %q, want 1", got)
	}
}

func TestGridCacheHitsAndDuplicates(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.CDDAT())
	warm := CompileOptions{Strategy: "apgan"}
	if _, err := ts.cl.Compile(CompileRequest{Graph: graph, Options: warm}, false); err != nil {
		t.Fatal(err)
	}
	// Entry 0 is cached; entries 1 and 2 are duplicates of each other and
	// must share one compilation and identical bytes.
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: []CompileOptions{
		warm,
		{Strategy: "rpmc", Looping: "dppo"},
		{Strategy: "rpmc", Looping: "dppo"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Cached {
		t.Error("warmed entry not served from cache")
	}
	if resp.Results[1].Cached || resp.Results[2].Cached {
		t.Error("cold entries reported cached")
	}
	if resp.Results[1].Digest != resp.Results[2].Digest ||
		!bytes.Equal(resp.Results[1].Artifact, resp.Results[2].Artifact) {
		t.Error("duplicate entries disagree")
	}
	// One distinct missed point: the assemble stats see exactly one node.
	if resp.PlannedNodes == 0 || resp.NaiveNodes == 0 {
		t.Errorf("stats missing: planned %d naive %d", resp.PlannedNodes, resp.NaiveNodes)
	}
}

func TestGridPerEntryErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.CDDAT())
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: []CompileOptions{
		{Allocators: []string{"nope"}}, // bad options: per-entry 400
		{Strategy: "apgan"},            // fine
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error == nil || resp.Results[0].Error.Reason != "bad_request" {
		t.Errorf("bad entry error = %+v, want bad_request", resp.Results[0].Error)
	}
	if resp.Results[1].Error != nil || len(resp.Results[1].Artifact) == 0 {
		t.Errorf("healthy entry poisoned: %+v", resp.Results[1])
	}
}

func TestGridRequestLevelErrors(t *testing.T) {
	ts := newTestServer(t, Config{GridMaxEntries: 2})
	graph := graphText(t, systems.CDDAT())

	_, err := ts.cl.Grid(GridRequest{Graph: graph})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("empty entries: %v, want 400", err)
	}

	_, err = ts.cl.Grid(GridRequest{Graph: graph, Entries: make([]CompileOptions, 3)})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest ||
		!strings.Contains(apiErr.Message, "limit is 2") {
		t.Errorf("too many entries: %v, want 400 with limit message", err)
	}

	_, err = ts.cl.Grid(GridRequest{Graph: "not an sdf graph", Entries: []CompileOptions{{}}})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("bad graph: %v, want 400", err)
	}
}

func TestGridCompileFailureIsPerEntry(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Inconsistent graph: compiles fail, but the grid request itself is 200
	// with a structured error on each entry.
	graph := "graph bad\nactor A\nactor B\nedge A B 2 3 0\nedge A B 1 1 0\n"
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: gridEntries()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error == nil || res.Error.Reason != "compile_failed" {
			t.Errorf("entry %d: %+v, want compile_failed", i, res.Error)
		}
	}
}

func TestGridArtifactRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.CDDAT())
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: []CompileOptions{
		{Strategy: "apgan", Looping: "flat", EmitC: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	var art Artifact
	if err := json.Unmarshal(res.Artifact, &art); err != nil {
		t.Fatal(err)
	}
	if art.Graph != "cddat" || art.Schedule == "" || art.C == "" {
		t.Errorf("artifact incomplete: %+v", art.Metrics)
	}
	// The digest is fetchable via the shared artifact endpoint.
	fetched, err := ts.cl.Artifact(res.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, res.Artifact) {
		t.Error("GET /v1/artifact bytes differ from grid response")
	}
}

// FuzzGridRequest drives the grid front end shared by POST /v1/grid and
// POST /v1/jobs/grid — body read under the cap, decode, entry-count check,
// one parse — with arbitrary bodies. It must not panic; a refused body
// must carry a 400 bad_request or 413 too_large APIError; an accepted one
// has 1..cap entries and a canonical text that is the parsed graph's and
// parses back to itself.
func FuzzGridRequest(f *testing.F) {
	const maxEntries = 4
	s := New(Config{Workers: 1, MaxRequestBytes: 1 << 11})
	f.Cleanup(s.Close)
	for _, seed := range []string{
		`{"graph":"graph g\nedge A B 3 2 0\n","entries":[{}]}`,
		`{"graph":"edge A B 2 3\nedge B C 1 1 4 2\n","entries":[{"strategy":"apgan"},{"looping":"flat","partitions":2},{}]}`,
		`{"graph":"edge A B 1 1","entries":[]}`,
		`{"graph":"edge A B 1 1","entries":[{},{},{},{},{}]}`,
		`{"graph":"edge A B 1 1","entries":[{"nosuch":1}]}`,
		`{"graph":"edge A B 0 1","entries":[{}]}`,
		`{"graph":"edge A B 1 1","entries":[{}]} trailing`,
		`{"graph":"edge A B 1 1","entries":[{}]}` + strings.Repeat(" ", 3000),
		`{"graph":"` + strings.Repeat("edge A B 1 1\\n", 200) + `","entries":[{}]}`,
		`{"graph":"edge A B 1 1"}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/grid", bytes.NewReader(body))
		raw, readErr := s.readBody(rec, r)
		req, canonical, g, apiErr := s.parseGridRequest(raw, readErr, maxEntries)
		if apiErr != nil {
			switch {
			case apiErr.Status == http.StatusBadRequest && apiErr.Reason == "bad_request":
			case apiErr.Status == http.StatusRequestEntityTooLarge && apiErr.Reason == "too_large":
			default:
				t.Fatalf("refused with %+v", apiErr)
			}
			return
		}
		if n := len(req.Entries); n < 1 || n > maxEntries {
			t.Fatalf("accepted %d entries, cap %d", n, maxEntries)
		}
		if again, err := sdfio.CanonicalString(g); err != nil || again != canonical {
			t.Fatalf("canonical text is not the parsed graph's: %q vs %q (%v)", canonical, again, err)
		}
		if again, err := sdfio.Canonicalize(canonical); err != nil || again != canonical {
			t.Fatalf("canonical text does not parse back to itself: %q vs %q (%v)", canonical, again, err)
		}
	})
}

// TestGridEntryJoinsCompileFlight: a grid entry whose digest an open
// /v1/compile flight is producing waits on that flight. The grid runs no
// plan of its own, and its entry carries the compile's bytes.
func TestGridEntryJoinsCompileFlight(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	ts.srv.testHookCompileStart = func() {
		started <- struct{}{}
		<-release
	}
	text := graphText(t, systems.SatelliteReceiver())

	var (
		wg                  sync.WaitGroup
		compiled            *CompileResponse
		grid                *GridResponse
		compileErr, gridErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		compiled, compileErr = ts.cl.Compile(CompileRequest{Graph: text}, false)
	}()
	<-started // the compile leads the digest's flight and holds its worker
	go func() {
		defer wg.Done()
		grid, gridErr = ts.cl.Grid(GridRequest{Graph: text, Entries: []CompileOptions{{}}})
	}()
	// The grid's entry has missed the cache once it counts its miss; it
	// joins the flight right after.
	for deadline := time.Now().Add(10 * time.Second); ts.metricValue(t, "sdfd_cache_misses_total") != "2"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the grid entry never missed the cache")
		}
	}
	select {
	case <-started:
		t.Error("the grid entry started a plan of its own")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	wg.Wait()
	if compileErr != nil || gridErr != nil {
		t.Fatalf("compile: %v, grid: %v", compileErr, gridErr)
	}
	res := grid.Results[0]
	if res.Error != nil || res.Cached || res.Digest != compiled.Digest || !bytes.Equal(res.Artifact, compiled.Artifact) {
		t.Errorf("grid entry %+v, want the compile's uncached artifact %s", res.Error, compiled.Digest)
	}
	if grid.PlannedNodes != 0 {
		t.Errorf("grid planned %d nodes, want 0", grid.PlannedNodes)
	}
	ts.mustMetric(t, "sdfd_pipeline_runs_total", "1")
	ts.mustMetric(t, "sdfd_grid_runs_total", "0")
}
