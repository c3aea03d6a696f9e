package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/sdf"
)

// Job states. A job is created running and moves to done exactly once, when
// every entry has reached a terminal state. There is no failed job state:
// failures are per-entry, mirroring /v1/grid.
const (
	JobStateRunning = "running"
	JobStateDone    = "done"
)

// JobEntryResult is one grid entry's terminal state inside a job. Artifact
// bytes are not inlined — the runner caches every produced artifact
// locally, so GET /v1/artifact/{digest} on the submitting node serves them.
type JobEntryResult struct {
	// Index is the entry's position in the submitted Entries array.
	Index int `json:"index"`
	// Digest is the artifact's content address (set on success).
	Digest string `json:"digest,omitempty"`
	// Cached is true when the entry was satisfied straight from the cache.
	Cached bool `json:"cached,omitempty"`
	// ServedBy names the peer that compiled the entry; empty means this
	// node did.
	ServedBy string `json:"served_by,omitempty"`
	// Error is the entry's structured failure, nil on success.
	Error *APIError `json:"error,omitempty"`
}

// JobResource is the wire representation of an async grid job
// (POST /v1/jobs/grid, GET /v1/jobs/{id}).
type JobResource struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Total/Completed/Failed count entries: Completed is entries in a
	// terminal state (successes and failures both), Failed the errored
	// subset. State is done exactly when Completed == Total.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Offset echoes the requested page start. Results holds the terminal
	// entries with Index >= Offset, ascending, at most the requested limit;
	// entries still in flight are simply absent, so pollers page with
	// offset = last result's Index + 1.
	Offset  int              `json:"offset"`
	Results []JobEntryResult `json:"results,omitempty"`
}

// job is the in-memory job record. results is indexed by entry; a nil slot
// is an entry still in flight. changed is closed and replaced on every
// completion, broadcasting to long-pollers.
type job struct {
	id    string
	total int

	mu        sync.Mutex
	results   []*JobEntryResult
	completed int
	failed    int
	changed   chan struct{}
}

func (j *job) complete(res JobEntryResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if res.Index < 0 || res.Index >= j.total || j.results[res.Index] != nil {
		return // exactly-once: late duplicates (e.g. a raced fallback) are dropped
	}
	j.results[res.Index] = &res
	j.completed++
	if res.Error != nil {
		j.failed++
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) isDone() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed == j.total
}

// resource snapshots the job as its wire representation, paging results by
// entry index.
func (j *job) resource(offset, limit int) *JobResource {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := &JobResource{
		ID: j.id, State: JobStateRunning,
		Total: j.total, Completed: j.completed, Failed: j.failed,
		Offset: offset,
	}
	if j.completed == j.total {
		r.State = JobStateDone
	}
	if limit <= 0 || limit > j.total {
		limit = j.total
	}
	for i := offset; i >= 0 && i < j.total && len(r.Results) < limit; i++ {
		if j.results[i] != nil {
			r.Results = append(r.Results, *j.results[i])
		}
	}
	return r
}

// awaitChange blocks until the job is done, another entry completes, the
// wait elapses, or the client disconnects — the long-poll core of
// GET /v1/jobs/{id}?wait=. Every completion closes changed, so waiting on
// the channel read under the lock is waiting for the completed count to
// advance past its value at the call.
func (j *job) awaitChange(ctx context.Context, wait time.Duration) {
	j.mu.Lock()
	done, ch := j.completed == j.total, j.changed
	j.mu.Unlock()
	if done {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	case <-ctx.Done():
	}
}

// jobStore holds the server's jobs: monotonic ids, bounded retention of
// finished jobs (past the cap the oldest finished jobs are evicted, however
// old the running jobs before them, so a long-lived daemon's job map cannot
// grow without bound).
type jobStore struct {
	mu    sync.Mutex
	seq   int
	jobs  map[string]*job
	order []string
}

const jobRetention = 256

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job)}
}

func (st *jobStore) create(total int) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	j := &job{
		id:      "j" + strconv.Itoa(st.seq),
		total:   total,
		results: make([]*JobEntryResult, total),
		changed: make(chan struct{}),
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	if excess := len(st.order) - jobRetention; excess > 0 {
		kept := st.order[:0]
		for _, id := range st.order {
			if excess > 0 && st.jobs[id].isDone() { // never evict a running job
				delete(st.jobs, id)
				excess--
				continue
			}
			kept = append(kept, id)
		}
		st.order = kept
	}
	return j
}

func (st *jobStore) get(id string) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.jobs[id]
}

func (st *jobStore) inflight() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if !j.isDone() {
			n++
		}
	}
	return n
}

// handleJobSubmit accepts POST /v1/jobs/grid: validate the grid-shaped body,
// create the job, start the runner, and answer 202 immediately with the job
// resource. Per-entry work — normalization, cache probes, planning, peer
// dispatch — all happens in the runner; a submission only pays for parsing.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	body, readErr := s.readBody(w, r)
	req, canonical, g, apiErr := s.parseGridRequest(body, readErr, s.cfg.JobMaxEntries)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	if s.jobs.inflight() >= s.cfg.MaxJobs {
		s.shed.With("jobs_full").Inc()
		s.writeError(w, &APIError{
			Status: http.StatusTooManyRequests, Reason: "queue_full",
			Message:           fmt.Sprintf("too many jobs in flight (limit %d); retry shortly", s.cfg.MaxJobs),
			RetryAfterSeconds: s.retryAfterSeconds(),
		})
		return
	}
	j := s.jobs.create(len(req.Entries))
	s.jobsWG.Add(1)
	go s.runJob(j, g, canonical, req.Entries)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	s.writeJSON(w, http.StatusAccepted, j.resource(0, 0))
}

// handleJobGet serves GET /v1/jobs/{id}[?wait=5s&offset=0&limit=100]: a
// snapshot of the job, optionally long-polling until progress. Not gated on
// draining — watching an in-flight job finish is exactly what a drain is
// for.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.writeError(w, &APIError{
			Status: http.StatusNotFound, Reason: "not_found",
			Message: fmt.Sprintf("no job %q (it may have been evicted after finishing)", r.PathValue("id")),
		})
		return
	}
	q := r.URL.Query()
	var page [2]int // offset, limit
	for k, name := range []string{"offset", "limit"} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				s.writeError(w, &APIError{Status: http.StatusBadRequest, Reason: "bad_request",
					Message: fmt.Sprintf("%s %q must be a non-negative integer", name, v)})
				return
			}
			page[k] = n
		}
	}
	if v := q.Get("wait"); v != "" {
		wait, err := time.ParseDuration(v)
		if err != nil || wait < 0 {
			s.writeError(w, &APIError{Status: http.StatusBadRequest, Reason: "bad_request",
				Message: fmt.Sprintf("wait %q must be a non-negative Go duration (e.g. 5s)", v)})
			return
		}
		if s.cfg.RequestTimeout > 0 && wait > s.cfg.RequestTimeout {
			wait = s.cfg.RequestTimeout
		}
		j.awaitChange(r.Context(), wait)
	}
	s.writeJSON(w, http.StatusOK, j.resource(page[0], page[1]))
}

// runJob is the job runner goroutine: it resolves the job's entries through
// the one resolver, running the local plans inline on this goroutine (not
// through the admission pool: an accepted job must finish even under
// synchronous load, and the plan's own executor already bounds
// parallelism). Runs on the server's base context so a graceful drain lets
// it finish; a hard Close cancels it and the remaining entries complete
// with shutdown errors — every entry reaches a terminal state exactly once
// either way.
func (s *Server) runJob(j *job, g *sdf.Graph, canonical string, entries []CompileOptions) {
	defer s.jobsWG.Done()
	s.resolveGrid(s.baseCtx, g, canonical, entries, false, false, gridHooks{
		exec: func(run func()) error { run(); return nil },
		ran:  s.countGridPlan,
		report: func(i int, res entryResult) {
			s.keepRouted(res)
			j.complete(JobEntryResult{Index: i, Digest: res.Digest, Cached: res.Cached, ServedBy: res.servedBy, Error: res.Error})
			if res.Error == nil {
				s.jobEntries.With("ok").Inc()
			} else {
				s.jobEntries.With("error").Inc()
			}
		},
	})
}

// SubmitGridJob POSTs one async grid job, returning the freshly created job
// resource (state running).
func (c *Client) SubmitGridJob(req GridRequest) (*JobResource, error) {
	return call[JobResource](c, http.MethodPost, "/v1/jobs/grid", req)
}

// Job fetches a job resource. wait > 0 long-polls until progress or the
// wait elapses; offset/limit page the results by entry index (limit 0 means
// no limit).
func (c *Client) Job(id string, wait time.Duration, offset, limit int) (*JobResource, error) {
	path := fmt.Sprintf("/v1/jobs/%s?offset=%d&limit=%d", id, offset, limit)
	if wait > 0 {
		path += "&wait=" + wait.String()
	}
	return call[JobResource](c, http.MethodGet, path, nil)
}

// AwaitJob long-polls a job until it is done or the deadline passes,
// returning the final resource with all results loaded.
func (c *Client) AwaitJob(id string, deadline time.Duration) (*JobResource, error) {
	start := time.Now()
	for {
		j, err := c.Job(id, 2*time.Second, 0, 0)
		if err != nil {
			return nil, err
		}
		if j.State == JobStateDone {
			return j, nil
		}
		if time.Since(start) > deadline {
			return j, fmt.Errorf("sdfd: job %s still %s after %v (%d/%d entries)", id, j.State, deadline, j.Completed, j.Total)
		}
	}
}
