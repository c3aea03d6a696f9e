package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/pass"
	"repro/internal/sdf"
)

// GridRequest is the body of POST /v1/grid: one graph compiled across many
// option sets in a single planned run. The planner dedups the entries into a
// prefix-sharing pass graph (repetitions once, each lexical order once per
// strategy, each schedule once per strategy×looping, ...), so a full
// configuration sweep costs O(distinct pass nodes) instead of O(entries ×
// pipeline length).
type GridRequest struct {
	// Graph is the SDF graph in .sdf text form, shared by every entry.
	Graph string `json:"graph"`
	// Entries are the option sets to compile the graph under; at most
	// Config.GridMaxEntries per request. Duplicate entries are legal and
	// share everything.
	Entries []CompileOptions `json:"entries"`
}

// GridEntryResult is one entry's outcome inside a GridResponse: either an
// artifact (with its content digest, fetchable via GET /v1/artifact) or a
// structured error. Failures are per-entry — one infeasible configuration
// does not fail its siblings.
type GridEntryResult struct {
	Digest   string          `json:"digest,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	Artifact json.RawMessage `json:"artifact,omitempty"`
	Error    *APIError       `json:"error,omitempty"`
}

// GridResponse is the success body of POST /v1/grid. Results align with the
// request's Entries by index. PlannedNodes and NaiveNodes report the prefix
// sharing achieved for the entries that actually compiled (cache hits run no
// plan and count for neither).
type GridResponse struct {
	Results      []GridEntryResult `json:"results"`
	PlannedNodes int               `json:"planned_nodes"`
	NaiveNodes   int               `json:"naive_nodes"`
}

// parseGridRequest decodes and validates a grid-shaped body read by
// readBody — shared by POST /v1/grid and POST /v1/jobs/grid, which differ
// only in their entry cap — returning the request, the canonical graph
// text, and the parsed graph.
func (s *Server) parseGridRequest(body []byte, readErr error, maxEntries int) (*GridRequest, string, *sdf.Graph, *APIError) {
	var req GridRequest
	if apiErr := s.decodeBody(body, readErr, &req); apiErr != nil {
		return nil, "", nil, apiErr
	}
	if len(req.Entries) == 0 {
		return nil, "", nil, &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: "grid request needs at least one entry",
		}
	}
	if len(req.Entries) > maxEntries {
		return nil, "", nil, &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("grid request has %d entries, limit is %d", len(req.Entries), maxEntries),
		}
	}
	g, canonical, apiErr := parseGraph(req.Graph)
	if apiErr != nil {
		return nil, "", nil, apiErr
	}
	return &req, canonical, g, nil
}

// handleGrid compiles one graph across every entry's option set. Request-
// level failures (unparseable graph, too many entries, admission shedding,
// request deadline) produce a non-2xx envelope; per-entry compile failures
// land inside the 200 response. Artifacts are cached under the same digests
// POST /v1/compile uses, so a grid request warms the single-compile cache
// and vice versa. A body seen before whose every entry is still cached is
// answered from the memo's digests without decoding it.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.shed.With("shutting_down").Inc()
		s.writeError(w, &APIError{
			Status: http.StatusServiceUnavailable, Reason: "shutting_down",
			Message:           "server is shutting down",
			RetryAfterSeconds: s.retryAfterSeconds(),
		})
		return
	}
	body, readErr := s.readBody(w, r)
	bk := bodyKey(memoGrid, body)
	if readErr == nil {
		if digests, ok := s.memo.get(bk); ok && s.serveGridHits(w, digests) {
			return
		}
	}
	req, canonical, g, apiErr := s.parseGridRequest(body, readErr, s.cfg.GridMaxEntries)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// The local plan goes through the admission pool, so a saturated queue
	// sheds the request; when the deadline expires first the plan still
	// finishes in its worker and warms the cache.
	admit := func(run func()) *APIError {
		done := make(chan struct{})
		if err := s.pool.TrySubmit(func() { defer close(done); run() }); err != nil {
			apiErr := s.classifyCompileError(err)
			s.countShed(apiErr)
			return apiErr
		}
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			s.shed.With("deadline").Inc()
			return &APIError{
				Status: http.StatusRequestTimeout, Reason: "deadline",
				Message: fmt.Sprintf("request deadline expired after %v while waiting for the grid compilation", s.cfg.RequestTimeout),
			}
		}
	}
	results := make([]GridEntryResult, len(req.Entries))
	digests, planned, naive, apiErr := s.resolveGrid(ctx, g, canonical, req.Entries, admit,
		func(i int, res GridEntryResult, _ string) { results[i] = res })
	if digests != nil && readErr == nil {
		s.memo.put(bk, digests)
	}
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	writeGrid(w, &GridResponse{
		Results:      results,
		PlannedNodes: planned,
		NaiveNodes:   naive,
	})
}

// serveGridHits answers a grid from its entries' digests when every one is
// cached, as the full path would (each entry a cache hit, no plan), and
// reports false with nothing written otherwise.
func (s *Server) serveGridHits(w http.ResponseWriter, digests []string) bool {
	results := make([]GridEntryResult, len(digests))
	for i, d := range digests {
		data, ok := s.cache.get(d)
		if !ok {
			return false
		}
		results[i] = GridEntryResult{Digest: d, Cached: true, Artifact: data}
	}
	s.cacheHits.Add(float64(len(digests)))
	writeGrid(w, &GridResponse{Results: results})
	return true
}

// gridMiss is one deduplicated digest a grid must produce, and the entry
// indices waiting on it.
type gridMiss struct {
	norm    CompileOptions
	opts    pass.Options
	digest  string
	entries []int
}

// gridReport receives one entry's terminal result: its index, the result
// (artifact bytes on success, a structured error otherwise) and the peer
// that compiled it, empty when this node did. Calls arrive concurrently,
// exactly once per entry while the resolution runs to its end.
type gridReport func(i int, res GridEntryResult, servedBy string)

// resolveGrid is the one grid path behind POST /v1/grid and POST
// /v1/jobs/grid. It normalizes and digests every entry and answers cache
// hits on the calling goroutine. It dedups the misses by digest and splits
// them by effective ring owner: the local share runs as one prefix-shared
// plan, streaming each entry out as its pass leaf finishes, while the
// remote share is dispatched to its owners, and every failed dispatch falls
// back into a second local plan. Each local plan runs through exec, the one
// thing the endpoints do differently; an error from exec ends the
// resolution and is returned as the request's error. ctx bounds the remote
// dispatches; local plans run on the server's base context under
// CompileTimeout, so they finish (and warm the cache) even after the caller
// stops waiting. digests holds each entry's digest, nil when an entry's
// options did not normalize; planned and naive sum plan.Stats over the
// local plans.
func (s *Server) resolveGrid(ctx context.Context, g *sdf.Graph, canonical string, entries []CompileOptions,
	exec func(run func()) *APIError, report gridReport) (digests []string, planned, naive int, apiErr *APIError) {
	var (
		local, remote []*gridMiss
		missFor       = map[string]*gridMiss{}
	)
	digests = make([]string, len(entries))
	for i, entry := range entries {
		norm, err := normalize(entry)
		var opts pass.Options
		if err == nil {
			opts, err = coreOptions(norm)
		}
		if err != nil {
			report(i, GridEntryResult{Error: &APIError{
				Status: http.StatusBadRequest, Reason: "bad_request",
				Message: fmt.Sprintf("options: %v", err),
			}}, "")
			digests = nil
			continue
		}
		digest := Digest(canonical, norm)
		if digests != nil {
			digests[i] = digest
		}
		if data, ok := s.cache.get(digest); ok {
			s.cacheHits.Inc()
			report(i, GridEntryResult{Digest: digest, Cached: true, Artifact: data}, "")
			continue
		}
		s.cacheMisses.Inc()
		m := missFor[digest]
		if m == nil {
			m = &gridMiss{norm: norm, opts: opts, digest: digest}
			missFor[digest] = m
			if cn := s.cluster; cn != nil && cn.ownerOf(digest) != cn.cfg.Self {
				remote = append(remote, m)
			} else {
				local = append(local, m)
			}
		}
		m.entries = append(m.entries, i)
	}

	// Remote dispatch overlaps the local plan: peers compile their shares
	// while this node runs its own.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		fellBack []*gridMiss
	)
	if len(remote) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fellBack = s.dispatchRemote(ctx, canonical, remote, report)
		}()
	}
	planned, naive, apiErr = s.runGridPlan(g, local, exec, report)
	if apiErr != nil {
		cancel() // the request failed: stop dispatching its remote share
	}
	wg.Wait()
	if apiErr == nil {
		var p, n int
		p, n, apiErr = s.runGridPlan(g, fellBack, exec, report)
		planned, naive = planned+p, naive+n
	}
	return digests, planned, naive, apiErr
}

// reportMiss reports one outcome to every entry behind a miss.
func reportMiss(m *gridMiss, res GridEntryResult, servedBy string, report gridReport) {
	for _, i := range m.entries {
		report(i, res, servedBy)
	}
}

// runGridPlan runs misses as one prefix-shared plan through exec, caching
// and reporting each point's artifact from OnOutcome, and returns the
// plan's summed node counts. An empty batch runs nothing.
func (s *Server) runGridPlan(g *sdf.Graph, misses []*gridMiss, exec func(run func()) *APIError, report gridReport) (int, int, *APIError) {
	if len(misses) == 0 {
		return 0, 0, nil
	}
	points := make([]pass.Options, len(misses))
	for i, m := range misses {
		points[i] = m.opts
	}
	// The run may outlive a failed exec (the caller stopped waiting), so its
	// counts are read only after exec reports that it finished.
	var planned, naive int
	apiErr := exec(func() {
		if s.testHookCompileStart != nil {
			s.testHookCompileStart()
		}
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.CompileTimeout)
		defer cancel()
		s.gridRuns.Inc()
		// With a node store, loaded nodes emit no events, so
		// sdfd_grid_pass_nodes_total keeps counting only pass work that
		// actually executed; store reuse shows up in
		// sdfd_nodestore_loads_total instead.
		plan, err := pass.NewPlan(g, points, pass.PlanConfig{
			Store: s.planStore(),
			OnEvent: func(e pass.Event) {
				if e.Enter {
					s.gridNodes.With(e.Kind.String()).Inc()
				}
			},
			OnOutcome: func(pt int, o pass.Outcome) {
				m := misses[pt]
				data, err := []byte(nil), o.Err
				if err == nil {
					data, err = ArtifactBytes(o.Result, m.norm)
				}
				if err != nil {
					reportMiss(m, GridEntryResult{Error: s.classifyCompileError(err)}, "", report)
					return
				}
				s.cache.put(m.digest, data)
				reportMiss(m, GridEntryResult{Digest: m.digest, Artifact: data}, "", report)
			},
		})
		if err != nil {
			// A plan-time failure (e.g. an inconsistent graph) affects every
			// point identically, exactly as a per-entry compile would.
			failed := s.classifyCompileError(err)
			for _, m := range misses {
				reportMiss(m, GridEntryResult{Error: failed}, "", report)
			}
			return
		}
		plan.Run(ctx)
		stats := plan.Stats()
		s.countLoads(stats)
		for _, kc := range stats {
			planned += kc.Nodes
			naive += kc.Naive
		}
		if saved := naive - planned; saved > 0 {
			s.gridSaved.Add(float64(saved))
		}
	})
	if apiErr != nil {
		return 0, 0, apiErr
	}
	return planned, naive, nil
}

// gridRemoteConcurrency bounds concurrent peer dispatches per grid.
const gridRemoteConcurrency = 4

// dispatchRemote sends each remote-owned miss to its effective owner from
// at most gridRemoteConcurrency goroutines and returns, in miss order, the
// misses whose dispatch failed, for the caller to compile locally — the
// rehash+fallback half of fault tolerance. Fetched artifacts are cached
// locally so this node can serve every digest it reports.
func (s *Server) dispatchRemote(ctx context.Context, canonical string, misses []*gridMiss, report gridReport) []*gridMiss {
	work := make(chan int, len(misses))
	for i := range misses {
		work <- i
	}
	close(work)
	failed := make([]bool, len(misses))
	var wg sync.WaitGroup
	for range min(gridRemoteConcurrency, len(misses)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				m := misses[i]
				if ctx.Err() != nil {
					failed[i] = true
					continue
				}
				dctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
				data, peer, ok := s.cluster.compileRemote(dctx, canonical, m.norm, m.digest)
				cancel()
				if !ok {
					failed[i] = true
					continue
				}
				s.cache.put(m.digest, data)
				reportMiss(m, GridEntryResult{Digest: m.digest, Artifact: data}, peer, report)
			}
		}()
	}
	wg.Wait()
	var fellBack []*gridMiss
	for i, m := range misses {
		if failed[i] {
			fellBack = append(fellBack, m)
		}
	}
	return fellBack
}

// Grid POSTs one grid request: one graph compiled across many option sets
// in a single planned, prefix-shared run.
func (c *Client) Grid(req GridRequest) (*GridResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequest(http.MethodPost, c.base()+"/v1/grid", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	body, err := c.do(httpReq)
	if err != nil {
		return nil, err
	}
	var out GridResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("sdfd: decoding grid response: %w", err)
	}
	return &out, nil
}
