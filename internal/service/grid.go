package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/pass"
	"repro/internal/sdf"
	"repro/internal/sdfio"
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

// parseGridRequest decodes and validates a grid-shaped body — shared by
// POST /v1/grid and POST /v1/jobs/grid, which differ only in their entry
// cap — returning the request, the canonical graph text, and the parsed
// graph.
func (s *Server) parseGridRequest(w http.ResponseWriter, r *http.Request, maxEntries int) (*GridRequest, string, *sdf.Graph, *APIError) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	var req GridRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, "", nil, &APIError{
				Status: http.StatusRequestEntityTooLarge, Reason: "too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes),
			}
		}
		return nil, "", nil, &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("decoding request: %v", err),
		}
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
	canonical, err := sdfio.Canonicalize(req.Graph)
	if err != nil {
		return nil, "", nil, &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("parsing graph: %v", err),
		}
	}
	g, err := sdfio.Parse(strings.NewReader(canonical))
	if err != nil {
		return nil, "", nil, &APIError{
			Status: http.StatusInternalServerError, Reason: "bad_request",
			Message: fmt.Sprintf("re-parsing canonical graph: %v", err),
		}
	}
	return &req, canonical, g, nil
}

// handleGrid compiles one graph across every entry's option set. Request-
// level failures (unparseable graph, too many entries, admission shedding,
// request deadline) produce a non-2xx envelope; per-entry compile failures
// land inside the 200 response. Artifacts are cached under the same digests
// POST /v1/compile uses, so a grid request warms the single-compile cache
// and vice versa.
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
	reqp, canonical, g, apiErr := s.parseGridRequest(w, r, s.cfg.GridMaxEntries)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	req := *reqp

	// Per-entry normalization and cache probing. Misses dedup by digest:
	// identical entries compile once and share bytes.
	results := make([]GridEntryResult, len(req.Entries))
	type miss struct {
		norm    CompileOptions
		digest  string
		entries []int // request indices sharing this digest
	}
	var (
		misses  []*miss
		missFor = map[string]*miss{}
	)
	for i, entry := range req.Entries {
		norm, err := normalize(entry)
		if err != nil {
			results[i] = GridEntryResult{Error: &APIError{
				Status: http.StatusBadRequest, Reason: "bad_request",
				Message: fmt.Sprintf("options: %v", err),
			}}
			continue
		}
		digest := Digest(canonical, norm)
		if data, ok := s.cache.get(digest); ok {
			s.cacheHits.Inc()
			results[i] = GridEntryResult{Digest: digest, Cached: true, Artifact: data}
			continue
		}
		s.cacheMisses.Inc()
		m := missFor[digest]
		if m == nil {
			m = &miss{norm: norm, digest: digest}
			missFor[digest] = m
			misses = append(misses, m)
		}
		m.entries = append(m.entries, i)
	}

	plannedNodes, naiveNodes := 0, 0
	if len(misses) > 0 {
		points := make([]pass.Options, len(misses))
		for i, m := range misses {
			copts, err := coreOptions(m.norm)
			if err != nil {
				// normalize already vetted every enum spelling.
				s.writeError(w, &APIError{
					Status: http.StatusInternalServerError, Reason: "bad_request",
					Message: fmt.Sprintf("normalized options failed to convert: %v", err),
				})
				return
			}
			points[i] = copts
		}

		type gridRun struct {
			outs  []pass.Outcome
			stats []pass.KindCount
			err   error
		}
		done := make(chan gridRun, 1)
		job := func() {
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
			})
			if err != nil {
				done <- gridRun{err: err}
				return
			}
			outs := plan.Run(ctx)
			s.countLoads(plan.Stats())
			done <- gridRun{outs: outs, stats: plan.Stats()}
		}
		if err := s.pool.TrySubmit(job); err != nil {
			s.writeError(w, s.classifyCompileError(err))
			return
		}

		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		var run gridRun
		select {
		case run = <-done:
		case <-ctx.Done():
			s.shed.With("deadline").Inc()
			s.writeError(w, &APIError{
				Status: http.StatusRequestTimeout, Reason: "deadline",
				Message: fmt.Sprintf("request deadline expired after %v while waiting for the grid compilation", s.cfg.RequestTimeout),
			})
			return
		}

		switch {
		case run.err != nil:
			// Plan-time failure (e.g. an inconsistent graph) affects every
			// pending entry identically, exactly as a per-entry compile would.
			apiErr := s.classifyCompileError(run.err)
			for _, m := range misses {
				for _, i := range m.entries {
					results[i] = GridEntryResult{Error: apiErr}
				}
			}
		default:
			for _, kc := range run.stats {
				plannedNodes += kc.Nodes
				naiveNodes += kc.Naive
			}
			if saved := naiveNodes - plannedNodes; saved > 0 {
				s.gridSaved.Add(float64(saved))
			}
			for mi, m := range misses {
				o := run.outs[mi]
				if o.Err != nil {
					apiErr := s.classifyCompileError(o.Err)
					for _, i := range m.entries {
						results[i] = GridEntryResult{Error: apiErr}
					}
					continue
				}
				data, err := ArtifactBytes(o.Result, m.norm)
				if err != nil {
					apiErr := s.classifyCompileError(err)
					for _, i := range m.entries {
						results[i] = GridEntryResult{Error: apiErr}
					}
					continue
				}
				s.cache.put(m.digest, data)
				for _, i := range m.entries {
					results[i] = GridEntryResult{Digest: m.digest, Artifact: data}
				}
			}
		}
	}

	s.writeJSON(w, http.StatusOK, &GridResponse{
		Results:      results,
		PlannedNodes: plannedNodes,
		NaiveNodes:   naiveNodes,
	})
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
