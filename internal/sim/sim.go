// Package sim executes a compiled SDF system token-by-token against a
// concrete shared-memory allocation and verifies that the combination is
// safe: no firing ever writes into cells owned by another live buffer, every
// consumed token carries exactly the value that was produced, and every edge
// returns to its initial state at the period boundary. It is the end-to-end
// correctness oracle for the whole compiler pipeline.
//
// A system runs as a partition.Program (the sequential one is its P=1 case)
// on the caller's goroutine, self-timed: a firing waits where
// internal/runtime's does by advancing the worker that owns the count until
// the count holds. One run per root worker fires it as early as its waits
// allow and the others only as far as they demand, so two accesses to one
// cell that no chain of waits orders run both ways.
package sim

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Run executes the schedule for the given number of periods in a shared
// memory image laid out by the allocation. intervals must be indexed by edge
// ID (as produced by schedtree.Lifetimes) and each must have a placement in
// the allocation. It returns the first safety violation found, or nil.
func Run(s *sched.Schedule, intervals []*lifetime.Interval, a *alloc.Allocation, periods int) error {
	prog, err := partition.Sequential(s, intervals, a)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return run(s.Graph, prog, periods)
}

// RunPhased executes a phased partitioned schedule against the segmented
// allocation and verifies the same properties as Run: partitioning bugs (a
// same-phase cross-worker edge, a buffer packed over a live neighbour, a
// missing drain) show as value corruption, count drift or a deadlock.
func RunPhased(g *sdf.Graph, part *partition.Partitioned, seg *partition.SegAlloc, periods int) error {
	prog, err := partition.Phased(g, part, seg)
	if err != nil {
		return fmt.Errorf("sim: phased: %w", err)
	}
	return run(g, prog, periods)
}

// DeadlockError reports a wait that is never met: worker Waiter waits on a
// count of Edge that Owner advances, and Owner, through a chain, on Waiter.
type DeadlockError struct {
	Waiter, Owner int
	Edge          sdf.EdgeID
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("deadlock: worker %d waits on worker %d over edge %d", e.Waiter, e.Owner, e.Edge)
}

// state is the memory image of one run. Its cell-ownership ledger (owner)
// exists only at P=1, where program order makes it exact; at P>=2 segments
// keep private traffic disjoint and unique token values expose clobbering.
type state struct {
	g      *sdf.Graph
	prog   *partition.Program
	mem    []int64
	owner  []int // edge ID + 1 owning each cell, 0 when free; nil without a ledger
	edges  []edgeState
	cursor []cursor // per worker
}

type edgeState struct {
	offset, size  int64
	words         int64 // memory words per token
	count         int64
	writes, reads int64 // absolute token counters
	live          bool
	// link is the edge's cross-worker link (nil on one worker); count0,
	// writes0 and reads0 are its counters at the period start.
	link                    *partition.Link
	count0, writes0, reads0 int64
}

// cursor is a worker's phase, term and firings done in that term; busy while it fires.
type cursor struct {
	ph, term int
	done     int64
	busy     bool
}

// run simulates prog once per root worker. prog comes from a partition
// constructor: its Links and Drains may be wrong in content, not in range.
func run(g *sdf.Graph, prog *partition.Program, periods int) error {
	for root := 0; root < prog.P; root++ {
		st := &state{g: g, prog: prog, cursor: make([]cursor, prog.P)}
		if err := st.run(root, periods); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// run seeds the delays and fires every period: worker root first, then the
// others in turn from root+1, each to the end of its period.
func (st *state) run(root, periods int) error {
	st.mem, st.edges = make([]int64, st.prog.Total), make([]edgeState, st.g.NumEdges())
	if st.prog.P == 1 {
		st.owner = make([]int, st.prog.Total)
	}
	for i, l := range st.prog.Links {
		st.edges[l.Edge].link = &st.prog.Links[i]
	}
	for _, e := range st.g.Edges() {
		es := &st.edges[e.ID]
		es.offset, es.size = st.prog.Offsets[e.ID], st.prog.Sizes[e.ID]
		es.words = max(e.Words, 1)
		es.count = e.Delay
		for i := int64(0); i < e.Delay; i++ {
			if err := st.claim(e.ID); err != nil {
				return fmt.Errorf("seeding delays: %w", err)
			}
			es.write(st.mem, tokenValue(e.ID, es.writes))
		}
	}
	for p := 0; p < periods; p++ {
		for i := range st.edges {
			es := &st.edges[i]
			es.count0, es.writes0, es.reads0 = es.count, es.writes, es.reads
		}
		clear(st.cursor)
		for i := range st.cursor {
			w := (root + i) % len(st.cursor)
			for st.next(w) != nil {
				if err := st.step(w); err != nil {
					return fmt.Errorf("period %d: %w", p, err)
				}
			}
		}
		for _, e := range st.g.Edges() {
			if es := &st.edges[e.ID]; es.count != e.Delay {
				return fmt.Errorf("period %d: edge %d ends with %d tokens, want %d", p, e.ID, es.count, e.Delay)
			}
		}
	}
	return nil
}

// next returns worker w's current term, or nil once its period is done.
func (st *state) next(w int) *sched.Node {
	for c := &st.cursor[w]; c.ph < len(st.prog.Phases); c.ph, c.term = c.ph+1, 0 {
		for terms := st.prog.Phases[c.ph][w]; c.term < len(terms); c.term, c.done = c.term+1, 0 {
			if c.done < terms[c.term].Count {
				return terms[c.term]
			}
		}
	}
	return nil
}

// step makes one iteration of worker w's current term. Its error names each
// firing on the chain of waits that led to it.
func (st *state) step(w int) error {
	c := &st.cursor[w]
	c.busy = true
	err := st.fire(w, st.next(w))
	c.busy = false
	if err != nil {
		return fmt.Errorf("phase %d worker %d: %w", c.ph, w, err)
	}
	c.done++
	return nil
}

// await advances worker owner until *count reaches want or owner's period
// is done; waiter waits on edge eid. A busy owner waits, further up this
// chain, on the waiter: a deadlock.
func (st *state) await(waiter, owner int, eid sdf.EdgeID, count *int64, want int64) error {
	for *count < want && st.next(owner) != nil {
		if st.cursor[owner].busy {
			return &DeadlockError{Waiter: waiter, Owner: owner, Edge: eid}
		}
		if err := st.step(owner); err != nil {
			return err
		}
	}
	return nil
}

// cross makes worker w wait where internal/runtime's take and give do before
// it moves n tokens on edge eid's link: a consumer (in) for writes beyond
// the tokens queued at the period start, a producer for reads when it needs
// room, each only on an earlier phase, and fails as the runtime does.
func (st *state) cross(w int, eid sdf.EdgeID, in bool, n int64) error {
	es := &st.edges[eid]
	l := es.link
	if l == nil {
		return nil
	}
	read, written, capacity := es.reads-es.reads0, es.writes-es.writes0, es.size/es.words
	owner, count, base, need := l.Src, &es.writes, es.writes0, read+n-es.count0
	if !in {
		owner, count, base, need = l.Dst, &es.reads, es.reads0, es.count0+written+n-capacity
	}
	var have int64
	if in == l.Ahead() {
		have = l.Tokens
	}
	if need > 0 && need <= have {
		if err := st.await(w, owner, eid, count, base+need); err != nil {
			return err
		}
		have = *count - base
	}
	if need > have && in {
		return fmt.Errorf("edge %d underflow: have %d, need %d", eid, es.count0+have-read, n)
	} else if need > have {
		return fmt.Errorf("edge %d overflow: count %d + %d > capacity %d", eid, es.count0+written-have, n, capacity)
	}
	return nil
}

// fire makes one iteration of term n on worker w. A firing waits for its
// drains to be read in full, consumes its inputs, then produces outputs.
func (st *state) fire(w int, n *sched.Node) error {
	if !n.IsLeaf() {
		for _, c := range n.Children {
			for i := int64(0); i < c.Count; i++ {
				if err := st.fire(w, c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	g, actor := st.g, n.Actor
	for _, eid := range g.Out(actor) {
		if st.prog.Drains == nil {
			break
		}
		for _, d := range st.prog.Drains[eid] {
			ds := &st.edges[d]
			if err := st.await(w, ds.link.Dst, d, &ds.reads, ds.reads0+ds.link.Tokens); err != nil {
				return err
			}
		}
	}
	for _, eid := range g.In(actor) {
		e := g.Edge(eid)
		es := &st.edges[eid]
		if err := st.cross(w, eid, true, e.Cons); err != nil {
			return err
		}
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
		if err := st.cross(w, eid, false, e.Prod); err != nil {
			return err
		}
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
// cell is still owned by another live buffer; without a ledger, a no-op.
func (st *state) claim(eid sdf.EdgeID) error {
	es := &st.edges[eid]
	if st.owner == nil || es.live {
		return nil
	}
	for c := es.offset; c < es.offset+es.size; c++ {
		if o := st.owner[c]; o != 0 && o != int(eid)+1 {
			return fmt.Errorf("buffer %d becoming live would clobber cell %d owned by buffer %d", eid, c, o-1)
		}
	}
	for c := es.offset; c < es.offset+es.size; c++ {
		st.owner[c] = int(eid) + 1
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
		if st.owner[c] == int(eid)+1 {
			st.owner[c] = 0
		}
	}
	es.live = false
}
