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
	g     *sdf.Graph
	prog  *partition.Program
	fires map[sdf.ActorID]Fire
	mem   []float64
	edges []edgeState
	bar   *par.Barrier // nil at P=1
}

type edgeState struct {
	offset, size int64
	rd, wr       int64
	count        int64
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
		g:     g,
		prog:  prog,
		fires: fires,
		mem:   make([]float64, prog.Total),
		edges: make([]edgeState, g.NumEdges()),
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
		st.count = ed.Delay
		// Initial tokens are zeros, occupying the first del cells.
		st.wr = ed.Delay
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
	for i := int64(0); i < st.count; i++ {
		out[i] = e.mem[st.offset+(st.rd+i)%st.size]
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
		e.mem[st.offset+st.wr%st.size] = v
		st.wr++
		st.count++
	}
	return nil
}

// RunPeriod executes one complete schedule period. At P=1 it fires on the
// caller's goroutine; otherwise it spawns P workers and joins them before
// returning. A worker that fails stops firing but keeps arriving at every
// barrier so the others complete deterministically, and the lowest-indexed
// worker's error is returned.
func (e *Engine) RunPeriod() error {
	if e.prog.P == 1 {
		return e.runWorker(0)
	}
	errs := make([]error, e.prog.P)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = e.runWorker(w)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorker fires worker w's terms phase by phase, joining the barrier
// after every phase when there is one.
func (e *Engine) runWorker(w int) (err error) {
	for ph, workers := range e.prog.Phases {
		if err == nil {
			if err = e.runTerms(workers[w]); err != nil {
				err = fmt.Errorf("runtime: phase %d worker %d %w", ph, w, err)
			}
		}
		if e.bar != nil {
			e.bar.Await()
		}
	}
	return err
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

// fire executes one firing: consume every input, compute, produce every
// output, with the same modulo cursor arithmetic as the generated C.
func (e *Engine) fire(a sdf.ActorID) error {
	g, mem := e.g, e.mem
	ins := g.In(a)
	outs := g.Out(a)
	inputs := make([][]float64, len(ins))
	for i, eid := range ins {
		ed := g.Edge(eid)
		st := &e.edges[eid]
		if st.count < ed.Cons {
			return fmt.Errorf("edge %d underflow: have %d, need %d", eid, st.count, ed.Cons)
		}
		vals := make([]float64, ed.Cons)
		for k := int64(0); k < ed.Cons; k++ {
			vals[k] = mem[st.offset+st.rd%st.size]
			st.rd++
		}
		st.count -= ed.Cons
		inputs[i] = vals
	}
	var outputs [][]float64
	if f := e.fires[a]; f != nil {
		outputs = f(inputs)
		if len(outputs) != len(outs) {
			return fmt.Errorf("actor returned %d output vectors, want %d", len(outputs), len(outs))
		}
	} else {
		var sum float64
		for _, vals := range inputs {
			for _, v := range vals {
				sum += v
			}
		}
		outputs = make([][]float64, len(outs))
		for i, eid := range outs {
			vals := make([]float64, g.Edge(eid).Prod)
			for k := range vals {
				vals[k] = sum
			}
			outputs[i] = vals
		}
	}
	for i, eid := range outs {
		ed := g.Edge(eid)
		st := &e.edges[eid]
		if int64(len(outputs[i])) != ed.Prod {
			return fmt.Errorf("actor produced %d tokens on edge %d, want %d",
				len(outputs[i]), eid, ed.Prod)
		}
		if st.count+ed.Prod > st.size {
			return fmt.Errorf("edge %d overflow: count %d + %d > capacity %d",
				eid, st.count, ed.Prod, st.size)
		}
		for _, v := range outputs[i] {
			mem[st.offset+st.wr%st.size] = v
			st.wr++
		}
		st.count += ed.Prod
	}
	return nil
}
