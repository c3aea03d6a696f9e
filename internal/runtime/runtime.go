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
//
// The phased run is self-timed: each worker fires its phase lists back to
// back with no barrier between phases. A consumer on another worker than
// its producer chases it token by token through published counts (the
// program's Links), and a producer whose buffer reuses shared-segment cells
// another worker still reads waits until they are read in full (the
// program's Drains). Every buffer holds a whole period's tokens, so no
// token is copied to let a consumer run ahead.
package runtime

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// per-actor state but must not share mutable state across actors. Its
// workers overlap phases, so the Fires of different phases may run at the
// same time.
type Engine struct {
	g      *sdf.Graph
	prog   *partition.Program
	fires  []Fire // indexed by actor ID
	mem    []float64
	edges  []edgeState
	actors []actorState
	// At P>=2: the cross-worker edges' per-period state, whether each
	// worker has stopped firing this period, and where waits park.
	links   []link
	stopped []atomic.Bool
	park    *par.Parker
}

type edgeState struct {
	offset, size int64
	cons, prod   int64
	rd, wr       int64 // cursors in [0, size)
	count        int64
	// link is the edge's cross-worker state at P>=2, nil when one worker
	// runs both endpoints. During a period the link's ends own the
	// cursors and counts; between periods the fields above hold them.
	link *link
}

// link is a cross-worker edge during a period. Only the producing worker
// writes prod and only the consuming worker writes cons; each side
// publishes how many tokens it has moved through an atomic the other side
// loads, and the padding keeps the fixed fields and the two sides on cache
// lines of their own.
type link struct {
	edge   sdf.EdgeID
	offset int64
	size   int64
	count0 int64 // tokens queued when the period started
	tokens int64 // tokens that cross per period
	// ahead reports that the producer fires in an earlier phase than the
	// consumer (partition.Link.Ahead).
	ahead    bool
	src, dst int // producing and consuming workers
	_        [64]byte
	prod     linkEnd
	_        [64]byte
	cons     linkEnd
	_        [64]byte
}

// linkEnd is one side of a link: its cursor in [0, size), the tokens it has
// moved this period, the other side's count as last loaded, and its own
// count, published.
type linkEnd struct {
	cursor, moved, seen int64
	pub                 atomic.Int64
}

// actorState is what a firing needs besides the image: the actor's edges
// and the engine-owned inputs handed to its Fire, one window of buf per
// input edge, so a firing allocates nothing; and, at P>=2, the links whose
// cells its outputs reuse, which must be read in full before it first
// writes in a period.
type actorState struct {
	in, out []sdf.EdgeID
	inputs  [][]float64
	buf     []float64
	drains  []*link
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
// concurrently, self-timed. Buffers live in the segmented image (per-worker
// private segments plus one shared segment). Only the shared segment's
// buffers are touched by two workers, and every such access is ordered by
// an atomic count the other worker publishes (a link's writes or reads, or
// a drain's full reads), so the run is race-free without per-buffer
// locking.
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
		fires:  make([]Fire, g.NumActors()),
		mem:    make([]float64, prog.Total),
		edges:  make([]edgeState, g.NumEdges()),
		actors: make([]actorState, g.NumActors()),
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
		e.fires[a.ID] = fires[a.ID]
	}
	if prog.P > 1 {
		if err := e.linkWorkers(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// linkWorkers sets up the program's links and drains.
func (e *Engine) linkWorkers() error {
	prog := e.prog
	e.links = make([]link, len(prog.Links))
	e.stopped = make([]atomic.Bool, prog.P)
	e.park = par.NewParker(prog.P)
	for i, pl := range prog.Links {
		if pl.Edge < 0 || int(pl.Edge) >= len(e.edges) || pl.Src < 0 || pl.Src >= prog.P || pl.Dst < 0 || pl.Dst >= prog.P {
			return fmt.Errorf("runtime: link %d (edge %d, workers %d->%d) out of range", i, pl.Edge, pl.Src, pl.Dst)
		}
		st := &e.edges[pl.Edge]
		l := &e.links[i]
		l.edge, l.offset, l.size, l.tokens = pl.Edge, st.offset, st.size, pl.Tokens
		l.ahead, l.src, l.dst = pl.Ahead(), pl.Src, pl.Dst
		st.link = l
	}
	if len(prog.Drains) != len(e.edges) {
		return fmt.Errorf("runtime: %d drain lists for %d edges", len(prog.Drains), len(e.edges))
	}
	for eid, ds := range prog.Drains {
		act := &e.actors[e.g.Edge(sdf.EdgeID(eid)).Src]
		for _, d := range ds {
			if d < 0 || int(d) >= len(e.edges) || e.edges[d].link == nil {
				return fmt.Errorf("runtime: edge %d drains edge %d, which no link carries", eid, d)
			}
			if l := e.edges[d].link; !slices.Contains(act.drains, l) {
				act.drains = append(act.drains, l)
			}
		}
	}
	return nil
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
// returning. A worker that fails stops firing and publishes that it has
// stopped, so a wait on it that can now never be met fails with the
// underflow or overflow error of a firing whose tokens or room fall short,
// and the lowest-indexed worker's error is returned. A Fire that panics at
// P>=2 fails its worker the same way, and after the join RunPeriod
// re-panics on the caller's goroutine with the lowest-indexed panicking
// worker's value; at P=1 the panic reaches the caller directly. A Fire that
// calls runtime.Goexit at P>=2 (t.FailNow, say) ends only its worker, which
// still publishes that it stopped, and RunPeriod returns that as the
// worker's error.
func (e *Engine) RunPeriod() error {
	if e.prog.P == 1 {
		return e.runWorker(0).err
	}
	e.startLinks()
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
	e.foldLinks()
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

// startLinks hands every cross-worker edge's queue to the link's two ends
// for a period; the workers are spawned after it, which orders it before
// their firings.
func (e *Engine) startLinks() {
	for i := range e.links {
		l := &e.links[i]
		st := &e.edges[l.edge]
		l.count0 = st.count
		l.prod.cursor, l.prod.moved, l.prod.seen = st.wr, 0, 0
		l.cons.cursor, l.cons.moved, l.cons.seen = st.rd, 0, 0
		l.prod.pub.Store(0)
		l.cons.pub.Store(0)
	}
	for w := range e.stopped {
		e.stopped[w].Store(false)
	}
}

// foldLinks folds every link's period back into its edge's queue once the
// workers are joined.
func (e *Engine) foldLinks() {
	for i := range e.links {
		l := &e.links[i]
		st := &e.edges[l.edge]
		st.count = l.count0 + l.prod.moved - l.cons.moved
		st.wr, st.rd = l.prod.cursor, l.cons.cursor
	}
}

// runWorker fires worker w's terms phase by phase. At P>=2 there is no
// barrier between phases: a firing waits only on the links and drains it
// needs, and the join in RunPeriod ends the period. A worker that stops —
// its last phase done, an error, a recovered panic, or a Goexit unwinding
// through it — publishes that on the way out, so that no wait on it lasts
// forever.
func (e *Engine) runWorker(w int) (out outcome) {
	if e.park != nil {
		defer e.stop(w)
		defer func() { out.panicked = recover() }()
	}
	for ph, phase := range e.prog.Phases {
		if err := e.runTerms(phase[w]); err != nil {
			out.err = fmt.Errorf("runtime: phase %d worker %d %w", ph, w, err)
			break
		}
	}
	return out
}

// stop publishes that worker w fires no more this period.
func (e *Engine) stop(w int) {
	e.stopped[w].Store(true)
	e.park.Wake()
}

// await waits until the count c reaches want or worker owner, the only
// writer of c, has stopped; it returns c's final value.
func (e *Engine) await(c *atomic.Int64, want int64, owner int) int64 {
	stopped := &e.stopped[owner]
	e.park.Await(func() bool { return c.Load() >= want || stopped.Load() })
	return c.Load()
}

// publish stores a link end's count and wakes anyone parked on it.
func (e *Engine) publish(c *atomic.Int64, v int64) {
	c.Store(v)
	e.park.Wake()
}

func (e *Engine) runTerms(terms []*sched.Node) error {
	for _, n := range terms {
		if n.IsLeaf() {
			// The actor's first writes of the period reuse cells that
			// consumers on other workers must have read in full. A drain
			// whose consumer stopped early is read no more, so its cells
			// are free either way.
			for _, d := range e.actors[n.Actor].drains {
				e.await(&d.cons.pub, d.tokens, d.dst)
			}
		}
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
		vals := act.buf[lo : lo+st.cons : lo+st.cons]
		lo += st.cons
		if st.link != nil {
			if err := e.take(st, eid, vals); err != nil {
				return err
			}
		} else {
			if st.count < st.cons {
				return fmt.Errorf("edge %d underflow: have %d, need %d", eid, st.count, st.cons)
			}
			for k := range vals {
				vals[k] = e.read(st)
			}
			st.count -= st.cons
		}
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
			if st.link != nil {
				if err := e.give(st, eid, nil, sum); err != nil {
					return err
				}
				continue
			}
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
		if st.link != nil {
			if err := e.give(st, eid, outputs[i], 0); err != nil {
				return err
			}
			continue
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

// take reads one firing's tokens from a cross-worker edge into vals,
// waiting for the producer's writes when it runs in an earlier phase. The
// firing may count on all of the period's writes in that case and on none
// otherwise; when that is not enough, or the producer stops short, it fails
// with an underflow error.
func (e *Engine) take(st *edgeState, eid sdf.EdgeID, vals []float64) error {
	l, c := st.link, &st.link.cons
	if need := c.moved + st.cons - l.count0; need > c.seen {
		var written int64
		if l.ahead {
			written = l.tokens
		}
		if need <= written {
			c.seen = e.await(&l.prod.pub, need, l.src)
			written = c.seen
		}
		if need > written {
			return fmt.Errorf("edge %d underflow: have %d, need %d", eid, l.count0+written-c.moved, st.cons)
		}
	}
	for k := range vals {
		vals[k] = e.mem[l.offset+c.cursor]
		if c.cursor++; c.cursor == l.size {
			c.cursor = 0
		}
	}
	c.moved += st.cons
	e.publish(&c.pub, c.moved)
	return nil
}

// give writes one firing's production on a cross-worker edge — vals, or
// st.prod copies of fill when vals is nil — and publishes it. The buffer
// holds the delay plus the period's tokens, so a write needs the
// consumer's reads only when more than the delay was queued at the start
// of the period (Push); it then waits for them when the consumer runs in
// an earlier phase. The firing may count on every read of the period in
// that case and on none otherwise; when that does not make room, or the
// consumer stops short, it fails with an overflow error.
func (e *Engine) give(st *edgeState, eid sdf.EdgeID, vals []float64, fill float64) error {
	l, p := st.link, &st.link.prod
	if need := l.count0 + p.moved + st.prod - l.size; need > p.seen {
		var read int64
		if !l.ahead {
			read = l.tokens
		}
		if need <= read {
			p.seen = e.await(&l.cons.pub, need, l.dst)
			read = p.seen
		}
		if need > read {
			return fmt.Errorf("edge %d overflow: count %d + %d > capacity %d",
				eid, l.count0+p.moved-read, st.prod, st.size)
		}
	}
	for k := int64(0); k < st.prod; k++ {
		v := fill
		if vals != nil {
			v = vals[k]
		}
		e.mem[l.offset+p.cursor] = v
		if p.cursor++; p.cursor == l.size {
			p.cursor = 0
		}
	}
	p.moved += st.prod
	e.publish(&p.pub, p.moved)
	return nil
}
