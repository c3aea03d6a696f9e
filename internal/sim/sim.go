// Package sim executes a compiled SDF system token-by-token against a
// concrete shared-memory allocation and verifies that the combination is
// safe: no firing ever writes into cells owned by another live buffer, every
// consumed token carries exactly the value that was produced, and every edge
// returns to its initial state at the period boundary.
//
// It is the end-to-end correctness oracle for the whole compiler pipeline:
// scheduling, lifetime extraction and storage allocation must all be right
// for a multi-period run to pass. Sequential and phased systems run as one
// partition.Program; the sequential one is its P=1 case.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Run executes the schedule for the given number of periods in a shared
// memory image laid out by the allocation. intervals must be indexed by edge
// ID (as produced by schedtree.Lifetimes) and each must have a placement in
// the allocation. It returns the first safety violation found, or nil.
func Run(s *sched.Schedule, q sdf.Repetitions, intervals []*lifetime.Interval,
	a *alloc.Allocation, periods int) error {
	prog, err := partition.Sequential(s, intervals, a)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return run(s.Graph, prog, periods)
}

// RunPhased executes a phased partitioned schedule on P goroutines against
// the segmented allocation and verifies the same token properties as Run.
// Workers synchronize on a cyclic barrier between phases, so all
// cross-worker buffer traffic is write-then-barrier-then-read; the
// verification therefore also catches partitioning bugs (a same-phase
// cross-worker edge, a shared buffer packed over a still-live neighbour) as
// value corruption or count drift. The verdict is deterministic: a worker
// that fails keeps joining every barrier so the others drain normally, and
// the lowest-indexed worker's error is reported.
func RunPhased(g *sdf.Graph, q sdf.Repetitions, part *partition.Partitioned,
	seg *partition.SegAlloc, periods int) error {
	prog, err := partition.Phased(g, part, seg)
	if err != nil {
		return fmt.Errorf("sim: phased: %w", err)
	}
	return run(g, prog, periods)
}

// state is the memory image of one run. The cell-ownership ledger (owner)
// exists only at P=1, where a single goroutine makes its claims exact; at
// P>=2 segments make private traffic disjoint by construction and the unique
// token values turn any cross-buffer clobbering into a read mismatch.
type state struct {
	g     *sdf.Graph
	mem   []int64
	owner []int // edge ID owning each cell, -1 when free; nil without a ledger
	edges []edgeState
}

type edgeState struct {
	offset, size  int64
	words         int64 // memory words per token
	count         int64
	writes, reads int64 // absolute token counters
	live          bool
}

func run(g *sdf.Graph, prog *partition.Program, periods int) error {
	st := &state{
		g:     g,
		mem:   make([]int64, prog.Total),
		edges: make([]edgeState, g.NumEdges()),
	}
	if prog.P == 1 {
		st.owner = make([]int, prog.Total)
		for i := range st.owner {
			st.owner[i] = -1
		}
	}
	for _, e := range g.Edges() {
		es := &st.edges[e.ID]
		es.offset, es.size = prog.Offsets[e.ID], prog.Sizes[e.ID]
		es.words = max(e.Words, 1)
		es.count = e.Delay
		if e.Delay > 0 {
			if err := st.claim(e.ID); err != nil {
				return fmt.Errorf("sim: seeding delays: %w", err)
			}
			for i := int64(0); i < e.Delay; i++ {
				es.write(st.mem, tokenValue(e.ID, es.writes))
			}
		}
	}
	var bar *par.Barrier
	errs := make([]error, prog.P)
	if prog.P > 1 {
		bar = par.NewBarrier(prog.P)
	}
	for p := 0; p < periods; p++ {
		if prog.P == 1 {
			errs[0] = st.runWorker(prog, bar, p, 0)
		} else {
			var wg sync.WaitGroup
			for w := range errs {
				wg.Add(1)
				// p goes in as an argument: captured, the loop variable
				// would cost an allocation each period, also at P=1.
				go func(p, w int) {
					defer wg.Done()
					errs[w] = errGoexit // stays set only if runWorker never returns
					errs[w] = st.runWorker(prog, bar, p, w)
				}(p, w)
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		// Period boundary invariants (workers are joined; no races).
		for _, e := range g.Edges() {
			if es := &st.edges[e.ID]; es.count != e.Delay {
				return fmt.Errorf("sim: period %d: edge %d ends with %d tokens, want %d",
					p, e.ID, es.count, e.Delay)
			}
		}
	}
	return nil
}

// errGoexit reports a worker whose goroutine exited (runtime.Goexit) in the
// middle of a period.
var errGoexit = errors.New("sim: a worker goroutine called runtime.Goexit")

// runWorker fires worker w's terms phase by phase for one period, joining
// the barrier between phases (the join in run orders the last phase). With
// a barrier, a failed worker stops firing (its local state is suspect), and
// every early exit — an error or a Goexit unwinding through it — arrives at
// the remaining barriers on the way out, so the other workers complete.
func (st *state) runWorker(prog *partition.Program, bar *par.Barrier, period, w int) error {
	last := len(prog.Phases) - 1
	ph := 0
	if bar != nil {
		defer func() {
			for ; ph < last; ph++ {
				bar.Await()
			}
		}()
	}
	for ; ph <= last; ph++ {
		if err := st.runTerms(prog.Phases[ph][w]); err != nil {
			return fmt.Errorf("sim: period %d phase %d worker %d: %w", period, ph, w, err)
		}
		if bar != nil && ph < last {
			bar.Await()
		}
	}
	return nil
}

func (st *state) runTerms(terms []*sched.Node) error {
	for _, n := range terms {
		for i := int64(0); i < n.Count; i++ {
			var err error
			if n.IsLeaf() {
				err = st.fire(n.Actor)
			} else {
				err = st.runTerms(n.Children)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// fire executes one firing of an actor: consume from all inputs, then
// produce on all outputs. At P>=2 each edge's bookkeeping is touched by at
// most one goroutine per phase (same-phase edges are intra-worker by
// construction) and cross-phase access is ordered by the barrier, so the
// plain field updates are race-free.
func (st *state) fire(actor sdf.ActorID) error {
	g := st.g
	for _, eid := range g.In(actor) {
		e := g.Edge(eid)
		es := &st.edges[eid]
		if es.count < e.Cons {
			return fmt.Errorf("actor %s consumes %d from edge %d holding %d",
				g.Actor(actor).Name, e.Cons, eid, es.count)
		}
		for i := int64(0); i < e.Cons; i++ {
			if err := es.read(st.mem, eid); err != nil {
				return fmt.Errorf("edge %d token %d corrupted: %w", eid, es.reads, err)
			}
		}
		es.count -= e.Cons
		if es.count == 0 {
			st.release(eid)
		}
	}
	for _, eid := range g.Out(actor) {
		e := g.Edge(eid)
		es := &st.edges[eid]
		if err := st.claim(eid); err != nil {
			return fmt.Errorf("actor %s producing on edge %d: %w", g.Actor(actor).Name, eid, err)
		}
		for i := int64(0); i < e.Prod; i++ {
			es.write(st.mem, tokenValue(eid, es.writes))
		}
		es.count += e.Prod
	}
	return nil
}

// write stores one token (words cells, each tagged with the token value plus
// its word index) at the tail of the circular buffer.
func (es *edgeState) write(mem []int64, v int64) {
	base := es.offset + (es.writes*es.words)%es.size
	for w := int64(0); w < es.words; w++ {
		mem[base+w] = v + w
	}
	es.writes++
}

// read pops one token from the head, verifying every word. Tokens leave in
// the order they were written, and the n-th token written on an edge is
// tokenValue(eid, n), so the n-th read must find exactly that value.
func (es *edgeState) read(mem []int64, eid sdf.EdgeID) error {
	want := tokenValue(eid, es.reads)
	base := es.offset + (es.reads*es.words)%es.size
	for w := int64(0); w < es.words; w++ {
		if got := mem[base+w]; got != want+w {
			return fmt.Errorf("cell %d holds %d, want %d", base+w, got, want+w)
		}
	}
	es.reads++
	return nil
}

// tokenValue derives a unique, deterministic value for the n-th token ever
// produced on an edge, so that any cross-buffer clobbering is detected on
// consumption. Tokens are spaced 1024 apart so the per-word offsets of a
// vector token (value, value+1, ...) never collide with a neighbour.
func tokenValue(e sdf.EdgeID, n int64) int64 {
	return int64(e)*1_000_000_007 + (n+1)*1024
}

// claim makes an edge's buffer live in the ownership ledger, failing if a
// cell is still owned by another live buffer. Without a ledger it does
// nothing.
func (st *state) claim(eid sdf.EdgeID) error {
	es := &st.edges[eid]
	if st.owner == nil || es.live {
		return nil
	}
	for c := es.offset; c < es.offset+es.size; c++ {
		if o := st.owner[c]; o != -1 && o != int(eid) {
			return fmt.Errorf("buffer %d becoming live would clobber cell %d owned by buffer %d", eid, c, o)
		}
	}
	for c := es.offset; c < es.offset+es.size; c++ {
		st.owner[c] = int(eid)
	}
	es.live = true
	return nil
}

// release frees a drained buffer's cells in the ownership ledger.
func (st *state) release(eid sdf.EdgeID) {
	es := &st.edges[eid]
	if !es.live {
		return
	}
	for c := es.offset; c < es.offset+es.size; c++ {
		if st.owner[c] == int(eid) {
			st.owner[c] = -1
		}
	}
	es.live = false
}
