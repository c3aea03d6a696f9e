// Package runtime executes a compiled SDF system on real data: actor
// behaviour is supplied as Go functions, tokens are float64 samples, and all
// buffering happens inside the single memory image produced by the
// allocator — the software analogue of running the generated C on a DSP.
//
// Each edge buffer lives at its allocated offset with modulo addressing
// (cursor arithmetic identical to the generated C), so executing a system
// here exercises exactly the memory behaviour the paper's synthesis flow
// commits to. One Engine runs both the sequential schedule (the P=1
// partition.Program) and a phased partitioning on P goroutines.
package runtime

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Fire is one actor's behaviour for a single firing: inputs holds the
// consumed tokens per input edge (in g.In order, cns(e) values each); the
// returned slice must hold prd(e) tokens per output edge (in g.Out order).
//
// inputs is owned by the engine and reused on the actor's next firing, so a
// Fire must not keep it, or any of its slices, after returning; copy what it
// needs to remember. Returning inputs (or slices of it) as the outputs is
// fine: the engine copies every produced token into the image before the
// actor fires again.
type Fire func(inputs [][]float64) [][]float64

// Engine executes a compiled result period by period.
//
// Because SDF semantics are deterministic, a phased Engine's observable
// behaviour — every firing's consumed and produced token values, and the
// queue contents reported by TokensOn — is bit-identical to the sequential
// Engine on the same graph, provided each supplied Fire is a pure function
// of its inputs. A phased Engine invokes Fires from worker goroutines (one
// worker per actor, fixed for the whole run), so a Fire closure may keep
// per-actor state but must not share mutable state across actors.
type Engine struct {
	g      *sdf.Graph
	prog   *partition.Program
	fires  map[sdf.ActorID]Fire
	mem    []float64
	edges  []edgeState
	actors []actorState
	bar    *par.Barrier // nil at P=1
}

type edgeState struct {
	offset, size int64
	cons, prod   int64
	rd, wr       int64 // cursors in [0, size)
	count        int64
}

// actorState is what a firing needs besides the image: the actor's edges
// and the engine-owned inputs handed to its Fire, one window of buf per
// input edge, so a firing allocates nothing.
type actorState struct {
	in, out []sdf.EdgeID
	inputs  [][]float64
	buf     []float64
}

// New builds a sequential engine for a verified compilation result. Actors
// without an entry in fires get the default behaviour: every output token is
// the sum of all consumed tokens (sources emit 0).
func New(res *core.Result, fires map[sdf.ActorID]Fire) (*Engine, error) {
	prog, err := partition.Sequential(res.Schedule, res.Intervals, res.Best)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return newEngine(res.Graph, prog, fires)
}

// NewPhased builds a phased engine for a compilation result that carries a
// partitioned schedule and segmented allocation (compiled with
// Options.Partitions >= 2): each period runs every worker's blocks
// concurrently with a cyclic barrier between phases. Buffers live in the
// segmented image (per-worker private segments plus one shared segment), so
// all cross-worker traffic is write-then-barrier-then-read and the run is
// race-free without per-buffer locking.
func NewPhased(res *core.Result, fires map[sdf.ActorID]Fire) (*Engine, error) {
	if res.Partition == nil || res.Segmented == nil {
		return nil, fmt.Errorf("runtime: result has no partitioned schedule (compile with Partitions >= 2)")
	}
	prog, err := partition.Phased(res.Graph, res.Partition, res.Segmented)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return newEngine(res.Graph, prog, fires)
}

// newEngine lays out the image of a program; like the generated C it
// supports scalar tokens only.
func newEngine(g *sdf.Graph, prog *partition.Program, fires map[sdf.ActorID]Fire) (*Engine, error) {
	e := &Engine{
		g:      g,
		prog:   prog,
		fires:  fires,
		mem:    make([]float64, prog.Total),
		edges:  make([]edgeState, g.NumEdges()),
		actors: make([]actorState, g.NumActors()),
	}
	if prog.P > 1 {
		e.bar = par.NewBarrier(prog.P)
	}
	for _, ed := range g.Edges() {
		if ed.Words > 1 {
			return nil, fmt.Errorf("runtime: edge %d uses %d-word tokens; the float64 engine supports scalar tokens only",
				ed.ID, ed.Words)
		}
		st := &e.edges[ed.ID]
		st.offset, st.size = prog.Offsets[ed.ID], prog.Sizes[ed.ID]
		st.cons, st.prod = ed.Cons, ed.Prod
		st.count = ed.Delay
		// Initial tokens are zeros, occupying the first del cells.
		st.wr = ed.Delay % st.size
	}
	for _, a := range g.Actors() {
		act := &e.actors[a.ID]
		act.in, act.out = g.In(a.ID), g.Out(a.ID)
		var n int64
		for _, eid := range act.in {
			n += e.edges[eid].cons
		}
		act.inputs = make([][]float64, len(act.in))
		act.buf = make([]float64, n)
	}
	return e, nil
}

// Mem exposes the memory image (for inspection; do not resize).
func (e *Engine) Mem() []float64 { return e.mem }

// TokensOn returns the tokens currently queued on an edge, oldest first.
// Call it only between periods (RunPeriod joins its workers before
// returning, so the image is quiescent then).
func (e *Engine) TokensOn(edge sdf.EdgeID) []float64 {
	st := &e.edges[edge]
	out := make([]float64, st.count)
	for i := range out {
		c := st.rd + int64(i)
		if c >= st.size {
			c -= st.size
		}
		out[i] = e.mem[st.offset+c]
	}
	return out
}

// Push appends tokens to an edge's queue (useful to seed non-zero initial
// token values before the first period).
func (e *Engine) Push(edge sdf.EdgeID, values ...float64) error {
	st := &e.edges[edge]
	if st.count+int64(len(values)) > st.size {
		return fmt.Errorf("runtime: pushing %d tokens overflows edge %d (count %d, size %d)",
			len(values), edge, st.count, st.size)
	}
	for _, v := range values {
		e.write(st, v)
	}
	st.count += int64(len(values))
	return nil
}

// read takes the token under an edge's read cursor and advances it, with
// the same circular addressing as the generated C.
func (e *Engine) read(st *edgeState) float64 {
	v := e.mem[st.offset+st.rd]
	if st.rd++; st.rd == st.size {
		st.rd = 0
	}
	return v
}

// write stores a token under an edge's write cursor and advances it.
func (e *Engine) write(st *edgeState, v float64) {
	e.mem[st.offset+st.wr] = v
	if st.wr++; st.wr == st.size {
		st.wr = 0
	}
}

// RunPeriod executes one complete schedule period. At P=1 it fires on the
// caller's goroutine; otherwise it spawns P workers and joins them before
// returning. A worker that fails stops firing but keeps arriving at every
// barrier so the others complete deterministically, and the lowest-indexed
// worker's error is returned. A Fire that panics at P>=2 fails its worker
// the same way, and after the join RunPeriod re-panics on the caller's
// goroutine with the lowest-indexed panicking worker's value; at P=1 the
// panic reaches the caller directly. A Fire that calls runtime.Goexit at
// P>=2 (t.FailNow, say) ends only its worker, which still arrives at the
// barriers it owes, and RunPeriod returns that as the worker's error.
func (e *Engine) RunPeriod() error {
	if e.prog.P == 1 {
		return e.runWorker(0).err
	}
	outs := make([]outcome, e.prog.P)
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w].exited = true // stays set only if runWorker never returns
			outs[w] = e.runWorker(w)
		}(w)
	}
	wg.Wait()
	for _, o := range outs {
		if o.panicked != nil {
			panic(o.panicked)
		}
	}
	for w, o := range outs {
		if o.exited {
			return fmt.Errorf("runtime: worker %d: a Fire called runtime.Goexit", w)
		}
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// outcome is how a worker's period ended: the error that stopped it, the
// value a Fire panicked with, or a Fire's runtime.Goexit.
type outcome struct {
	err      error
	panicked any
	exited   bool
}

// runWorker fires worker w's terms phase by phase, joining the barrier
// between phases; the join in RunPeriod orders the last phase. A worker
// that stops early — an error, a recovered panic, or a Goexit unwinding
// through it — arrives at its remaining barriers on the way out.
func (e *Engine) runWorker(w int) (out outcome) {
	last := len(e.prog.Phases) - 1
	ph := 0
	if e.bar != nil {
		defer func() {
			for ; ph < last; ph++ {
				e.bar.Await()
			}
		}()
	}
	for ; ph <= last; ph++ {
		if out = e.runPhase(ph, w, e.prog.Phases[ph][w]); out.err != nil || out.panicked != nil {
			break
		}
		if e.bar != nil && ph < last {
			e.bar.Await()
		}
	}
	return out
}

// runPhase fires one phase's terms of worker w. With a barrier it recovers
// a panicking Fire, so that its worker can go on arriving at the barriers.
func (e *Engine) runPhase(ph, w int, terms []*sched.Node) (out outcome) {
	if e.bar != nil {
		defer func() { out.panicked = recover() }()
	}
	if err := e.runTerms(terms); err != nil {
		out.err = fmt.Errorf("runtime: phase %d worker %d %w", ph, w, err)
	}
	return out
}

func (e *Engine) runTerms(terms []*sched.Node) error {
	for _, n := range terms {
		for i := int64(0); i < n.Count; i++ {
			if n.IsLeaf() {
				if err := e.fire(n.Actor); err != nil {
					return fmt.Errorf("firing %s: %w", e.g.Actor(n.Actor).Name, err)
				}
			} else if err := e.runTerms(n.Children); err != nil {
				return err
			}
		}
	}
	return nil
}

// fire executes one firing: consume every input into the actor's input
// windows, compute, produce every output, with the same circular cursor
// arithmetic as the generated C.
func (e *Engine) fire(a sdf.ActorID) error {
	act := &e.actors[a]
	var lo int64
	for i, eid := range act.in {
		st := &e.edges[eid]
		if st.count < st.cons {
			return fmt.Errorf("edge %d underflow: have %d, need %d", eid, st.count, st.cons)
		}
		vals := act.buf[lo : lo+st.cons : lo+st.cons]
		lo += st.cons
		for k := range vals {
			vals[k] = e.read(st)
		}
		st.count -= st.cons
		act.inputs[i] = vals
	}
	f := e.fires[a]
	if f == nil {
		// Default behaviour: every output token is the sum of the inputs.
		var sum float64
		for _, v := range act.buf {
			sum += v
		}
		for _, eid := range act.out {
			st := &e.edges[eid]
			if err := st.reserve(eid); err != nil {
				return err
			}
			for k := int64(0); k < st.prod; k++ {
				e.write(st, sum)
			}
		}
		return nil
	}
	outputs := f(act.inputs)
	if len(outputs) != len(act.out) {
		return fmt.Errorf("actor returned %d output vectors, want %d", len(outputs), len(act.out))
	}
	for i, eid := range act.out {
		st := &e.edges[eid]
		if int64(len(outputs[i])) != st.prod {
			return fmt.Errorf("actor produced %d tokens on edge %d, want %d",
				len(outputs[i]), eid, st.prod)
		}
		if err := st.reserve(eid); err != nil {
			return err
		}
		for _, v := range outputs[i] {
			e.write(st, v)
		}
	}
	return nil
}

// reserve accounts one firing's production on an edge, failing when it
// would overflow the buffer.
func (st *edgeState) reserve(eid sdf.EdgeID) error {
	if st.count+st.prod > st.size {
		return fmt.Errorf("edge %d overflow: count %d + %d > capacity %d",
			eid, st.count, st.prod, st.size)
	}
	st.count += st.prod
	return nil
}
