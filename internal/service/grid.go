package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/check"
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
	if s.refuseDraining(w) {
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
	results := make([]GridEntryResult, len(req.Entries))
	digests, planned, naive, apiErr := s.resolveGrid(ctx, g, canonical, req.Entries, false, r.Header.Get(forwardedHeader) != "",
		gridHooks{
			exec: s.admit,
			ran:  s.countGridPlan,
			report: func(i int, res entryResult) {
				s.keepRouted(res)
				results[i] = res.GridEntryResult
			},
		})
	if digests != nil && readErr == nil {
		s.memo.put(bk, digests)
	}
	if apiErr != nil {
		s.countShed(apiErr)
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

// countGridPlan is the grid routes' run counter: one grid run per local
// plan, its executed nodes by kind, and the executions prefix sharing
// saved.
func (s *Server) countGridPlan(stats []pass.KindCount) {
	s.gridRuns.Inc()
	saved := 0
	for _, kc := range stats {
		if kc.Executed > 0 {
			s.gridNodes.With(kc.Kind.String()).Add(float64(kc.Executed))
		}
		saved += kc.Naive - kc.Nodes
	}
	if saved > 0 {
		s.gridSaved.Add(float64(saved))
	}
}

// gridMiss is one deduplicated digest a resolution must produce, the entry
// indices waiting on it, and the flight it joined under key.
type gridMiss struct {
	norm    CompileOptions
	opts    pass.Options
	digest  string
	entries []int
	key     string
	f       *flight
	settled bool // set by the one goroutine that settles the miss; read after the plan's workers stop
}

// entryResult is one entry's terminal result as the resolver reports it:
// the wire result, the peer that produced it (empty when this node did),
// and whether the entry waited on another request's flight.
type entryResult struct {
	GridEntryResult
	servedBy  string
	coalesced bool
	// relay is an owner's undecoded answer, in place of Artifact.
	relay []byte
	// abandoned marks the leader's own refusal, which answers the leader's
	// entries; the flight's followers join again.
	abandoned bool
}

func failed(e *APIError) entryResult {
	return entryResult{GridEntryResult: GridEntryResult{Error: e}}
}

func abandoned(e *APIError) entryResult {
	return entryResult{GridEntryResult: GridEntryResult{Error: e}, abandoned: true}
}

func hit(digest string, data []byte, servedBy string) entryResult {
	return entryResult{GridEntryResult: GridEntryResult{Digest: digest, Cached: true, Artifact: data}, servedBy: servedBy}
}

// gridHooks are what the routes do differently around one resolution.
type gridHooks struct {
	// exec starts one local plan: admit on the synchronous routes, an
	// inline call on a job's runner. An error means run never starts.
	exec func(run func()) error
	// ran counts one finished local plan, from its node counts, under the
	// route's run counter. It runs inside the plan, before the resolver
	// learns that the plan finished.
	ran func([]pass.KindCount)
	// report receives each entry's terminal result. Calls arrive
	// concurrently, exactly once per entry while the resolution runs to its
	// end.
	report func(i int, res entryResult)
	// relay leaves owners' answers undecoded, to pass them through verbatim.
	relay bool
}

// keepRouted is the grid routes' cache rule for an entry an owner answered:
// keep it, so this node serves every digest it reports. (A routed compile
// is not kept; GET /v1/artifact peer-fetches it.)
func (s *Server) keepRouted(res entryResult) {
	if res.servedBy != "" && res.Error == nil {
		s.cache.put(res.Digest, res.Artifact)
	}
}

// admit is the synchronous routes' exec hook: their local plans go through
// the admission pool, so a saturated queue sheds the request.
func (s *Server) admit(run func()) error { return s.pool.TrySubmit(run) }

// newMiss normalizes one entry's options and names its digest: the miss
// the entry becomes when the cache does not hold that digest.
func newMiss(canonical string, entry CompileOptions) (*gridMiss, error) {
	norm, err := normalize(entry)
	if err != nil {
		return nil, err
	}
	opts, err := coreOptions(norm)
	if err != nil {
		return nil, err
	}
	return &gridMiss{norm: norm, opts: opts, digest: Digest(canonical, norm)}, nil
}

// optionsError is the request error of options that do not normalize.
func optionsError(err error) *APIError {
	return &APIError{
		Status: http.StatusBadRequest, Reason: "bad_request",
		Message: fmt.Sprintf("options: %v", err),
	}
}

// resolveGrid is the one path in the service that turns missed digests
// into artifacts, behind POST /v1/compile (a one-entry grid, which
// handleCompile hands to resolveMisses directly), POST /v1/grid and POST
// /v1/jobs/grid. It answers cache hits (verify skips the cache), dedups
// the misses by digest and resolves them with resolveMisses. digests holds
// each entry's digest, nil when an entry's options did not normalize;
// planned and naive sum plan.Stats over the local plans.
func (s *Server) resolveGrid(ctx context.Context, g *sdf.Graph, canonical string, entries []CompileOptions,
	verify, forwarded bool, h gridHooks) (digests []string, planned, naive int, apiErr *APIError) {
	var (
		misses  []*gridMiss
		missFor = map[string]*gridMiss{}
	)
	digests = make([]string, len(entries))
	for i, entry := range entries {
		e, err := newMiss(canonical, entry)
		if err != nil {
			h.report(i, failed(optionsError(err)))
			digests = nil
			continue
		}
		if digests != nil {
			digests[i] = e.digest
		}
		if !verify {
			if data, ok := s.cache.get(e.digest); ok {
				s.cacheHits.Inc()
				h.report(i, hit(e.digest, data, ""))
				continue
			}
			s.cacheMisses.Inc()
		}
		m := missFor[e.digest]
		if m == nil {
			m = e
			missFor[e.digest] = m
			misses = append(misses, m)
		}
		m.entries = append(m.entries, i)
	}
	planned, naive, apiErr = s.resolveMisses(ctx, g, canonical, misses, verify, forwarded, h)
	return digests, planned, naive, apiErr
}

// resolveMisses resolves deduplicated misses in rounds (resolveRound) until
// none is left to join again. ctx bounds the waits and peer calls; local
// plans run on the server's base context under CompileTimeout, so they
// finish, warming the cache and their flights, after the caller stops
// waiting. A plan that cannot start or a wait that outlives ctx ends the
// resolution with the request's error.
func (s *Server) resolveMisses(ctx context.Context, g *sdf.Graph, canonical string, misses []*gridMiss,
	verify, forwarded bool, h gridHooks) (planned, naive int, apiErr *APIError) {
	for len(misses) > 0 {
		var p, n int
		p, n, misses, apiErr = s.resolveRound(ctx, g, canonical, misses, verify, forwarded, h)
		planned, naive = planned+p, naive+n
		if apiErr != nil {
			break
		}
	}
	return planned, naive, apiErr
}

// resolveRound joins each miss's flight once: it waits on a flight another
// request leads, and returns those its leader abandoned, to join again. The
// misses it leads are split by effective ring owner unless verify or
// forwarded keeps them here: a remote share is dispatched to its owners, an
// owned share first tries a peer fetch, what remains runs as one
// prefix-shared plan through h.exec, and failed dispatches fall back into a
// second local plan. A request that fails abandons the flights it led but
// did not produce, so no request inherits another's refusal.
func (s *Server) resolveRound(ctx context.Context, g *sdf.Graph, canonical string, misses []*gridMiss,
	verify, forwarded bool, h gridHooks) (planned, naive int, retry []*gridMiss, apiErr *APIError) {
	report := func(m *gridMiss, res entryResult) {
		for _, i := range m.entries {
			h.report(i, res)
		}
	}
	// settle ends a miss this resolution leads: it publishes the result to
	// the miss's followers, then reports it to the miss's own entries.
	settle := func(m *gridMiss, res entryResult) {
		m.settled = true
		s.flights.finish(m.key, m.f, res)
		report(m, res)
	}
	// Verifying flights are keyed apart, so a plain request never waits on
	// the slower compile+oracle run, and so are remote dispatches, so a
	// forwarded request never waits on a dispatch that may be waiting on
	// it.
	cn := s.cluster
	routed := cn != nil && !verify && !forwarded
	var local, fetch, remote, followers []*gridMiss
	for _, m := range misses {
		owned := !routed || cn.ownerOf(m.digest) == cn.cfg.Self
		m.key = m.digest
		if verify {
			m.key = "verify:" + m.digest
		} else if !owned {
			m.key = "peer:" + m.digest
		}
		var leader bool
		if m.f, leader = s.flights.join(m.key); !leader {
			followers = append(followers, m)
			continue
		}
		// The previous flight for this digest may have cached its artifact
		// between the probe above and the join: one pipeline run per
		// digest stays exact, not merely likely.
		if !verify {
			if data, ok := s.cache.get(m.digest); ok {
				settle(m, hit(m.digest, data, ""))
				continue
			}
		}
		switch {
		case !routed:
			local = append(local, m)
		case owned:
			fetch = append(fetch, m)
		default:
			remote = append(remote, m)
		}
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
			fellBack = s.dispatch(ctx, remote, settle, func(ctx context.Context, m *gridMiss) (entryResult, bool) {
				return cn.compileRemote(ctx, canonical, m.norm, m.digest, h.relay)
			})
		}()
	}
	// An owner with a cold cache (restart, membership change) asks its
	// ranked fallbacks before it compiles. Integrity was re-verified
	// against the wire checksum, and the bytes are in wire form.
	local = append(local, s.dispatch(ctx, fetch, settle, func(ctx context.Context, m *gridMiss) (entryResult, bool) {
		data, peer, ok := cn.fetchArtifact(ctx, m.digest)
		if ok {
			s.cache.put(m.digest, data)
		}
		return hit(m.digest, data, peer), ok
	})...)
	planned, naive, apiErr = s.runGridPlan(ctx, g, local, verify, h, settle)
	if apiErr != nil {
		cancel() // the request failed: stop dispatching its remote share
	}
	wg.Wait()
	if apiErr != nil {
		for _, m := range fellBack {
			settle(m, abandoned(apiErr))
		}
		return planned, naive, nil, apiErr
	}
	p, n, apiErr := s.runGridPlan(ctx, g, fellBack, verify, h, settle)
	planned, naive = planned+p, naive+n
	if apiErr != nil {
		return planned, naive, nil, apiErr
	}
	for k, m := range followers {
		select {
		case <-m.f.done:
		case <-ctx.Done():
			// The caller stopped waiting. A job still needs a terminal
			// result for every entry.
			apiErr = s.waitError()
			for _, m := range followers[k:] {
				report(m, failed(apiErr))
			}
			return planned, naive, nil, apiErr
		}
		res := m.f.res
		if res.relay != nil {
			// A follower decodes what its leader relayed; an answer that does
			// not decode leaves the digest to resolve again.
			var ok bool
			res, ok = res.decoded()
			res.abandoned = !ok
		}
		if res.abandoned {
			retry = append(retry, m)
			continue
		}
		res.Cached, res.coalesced = false, true
		report(m, res)
	}
	return planned, naive, retry, nil
}

// runGridPlan runs misses as one prefix-shared plan through h.exec, caching
// and settling each point's artifact from OnOutcome (after the ?verify=1
// oracle when verify is set), and returns the plan's summed node counts
// once it finished. An empty batch runs nothing.
func (s *Server) runGridPlan(ctx context.Context, g *sdf.Graph, misses []*gridMiss, verify bool,
	h gridHooks, settle func(*gridMiss, entryResult)) (planned, naive int, apiErr *APIError) {
	if len(misses) == 0 {
		return 0, 0, nil
	}
	points := make([]pass.Options, len(misses))
	for i, m := range misses {
		points[i] = m.opts
	}
	// The run may outlive the wait (the caller stopped waiting), so its
	// counts are read only after done.
	var stats []pass.KindCount
	done := make(chan struct{})
	err := h.exec(func() {
		defer close(done)
		defer func() {
			// A panicking pass fails the points it did not settle, so no
			// flight is left open.
			if r := recover(); r != nil {
				failure := s.classifyCompileError(fmt.Errorf("service: pipeline panic: %v", r))
				for _, m := range misses {
					if !m.settled {
						settle(m, failed(failure))
					}
				}
			}
			h.ran(stats)
		}()
		if s.testHookCompileStart != nil {
			s.testHookCompileStart()
		}
		pctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.CompileTimeout)
		defer cancel()
		plan, err := pass.NewPlan(g, points, pass.PlanConfig{
			Store:   s.planStore(),
			OnEvent: s.stageEvents(),
			OnOutcome: func(pt int, o pass.Outcome) {
				m := misses[pt]
				data, err := []byte(nil), o.Err
				if err == nil {
					data, err = ArtifactBytes(o.Result, m.norm)
				}
				if err == nil && verify {
					err = s.verifyArtifact(o.Result, m.digest, data)
				}
				if err != nil {
					settle(m, failed(s.classifyCompileError(err)))
					return
				}
				s.cache.put(m.digest, data)
				settle(m, entryResult{GridEntryResult: GridEntryResult{Digest: m.digest, Artifact: data}})
			},
		})
		if err != nil {
			// A plan-time failure (e.g. an inconsistent graph) affects every
			// point identically, exactly as a per-entry compile would.
			failure := s.classifyCompileError(err)
			for _, m := range misses {
				settle(m, failed(failure))
			}
			return
		}
		plan.Run(pctx)
		stats = plan.Stats()
		s.countLoads(stats)
	})
	if err != nil {
		// The plan never started: abandon its flights, so their followers
		// join again instead of waiting forever or taking this refusal.
		apiErr = s.classifyCompileError(err)
		for _, m := range misses {
			settle(m, abandoned(apiErr))
		}
		return 0, 0, apiErr
	}
	select {
	case <-done:
	case <-ctx.Done():
		select {
		case <-done: // an inline run finished before ctx ended
		default:
			return 0, 0, s.waitError()
		}
	}
	for _, kc := range stats {
		planned += kc.Nodes
		naive += kc.Naive
	}
	return planned, naive, nil
}

// verifyArtifact is the ?verify=1 oracle over one fresh compilation: the
// stage-by-stage invariants, and the digest contract that one digest names
// one byte sequence, so a cached artifact must equal the recompilation
// (anything else is cache poisoning or lost determinism).
func (s *Server) verifyArtifact(res *pass.Result, digest string, data []byte) error {
	if err := check.Pipeline(res, check.Options{}); err != nil {
		return fmt.Errorf("%w: %w", errVerifyFailed, err)
	}
	if cached, ok := s.cache.get(digest); ok && !bytes.Equal(cached, data) {
		return fmt.Errorf("%w: cached artifact for digest %s differs from recompilation", errVerifyFailed, digest)
	}
	return nil
}

// gridRemoteConcurrency bounds concurrent peer calls per resolution and
// kind (fetch, dispatch).
const gridRemoteConcurrency = 4

// dispatch tries each miss with try from at most gridRemoteConcurrency
// goroutines, each try bounded by RequestTimeout, settles the misses it
// served, and returns, in miss order, the ones it did not, for the caller
// to compile locally: the rehash+fallback half of fault tolerance.
func (s *Server) dispatch(ctx context.Context, misses []*gridMiss, settle func(*gridMiss, entryResult),
	try func(context.Context, *gridMiss) (entryResult, bool)) []*gridMiss {
	work := make(chan int, len(misses))
	for i := range misses {
		work <- i
	}
	close(work)
	served := make([]bool, len(misses))
	worker := func() {
		for i := range work {
			if ctx.Err() != nil {
				continue
			}
			dctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
			res, ok := try(dctx, misses[i])
			cancel()
			if ok {
				served[i] = true
				settle(misses[i], res)
			}
		}
	}
	// The calling goroutine is one of the workers.
	var wg sync.WaitGroup
	for range min(gridRemoteConcurrency, len(misses)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	var rest []*gridMiss
	for i, m := range misses {
		if !served[i] {
			rest = append(rest, m)
		}
	}
	return rest
}

// Grid POSTs one grid request: one graph compiled across many option sets
// in a single planned, prefix-shared run.
func (c *Client) Grid(req GridRequest) (*GridResponse, error) {
	return call[GridResponse](c, http.MethodPost, "/v1/grid", req)
}
