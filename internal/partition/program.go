package partition

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/num"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Program is the one executable form of a compiled system that the
// simulator, the float64 runtime and the C emitters all run: per phase and
// worker, a list of schedule terms fired in order, plus the layout of every
// edge buffer in one memory image. The sequential schedule is the P=1 case
// (one phase whose single worker runs the looped schedule body); a phased
// partitioning gives one leaf term per firing block. The self-timed
// executors (internal/runtime, internal/sim) run each worker's phases back
// to back and order cross-worker traffic by Links and Drains alone; only
// the threaded C passes a barrier between consecutive phases.
type Program struct {
	// P is the worker count. At P=1 the runtime runs on the caller's
	// goroutine; the simulator does at every P.
	P int
	// Phases[ph][w] holds worker w's terms for phase ph.
	Phases [][][]*sched.Node
	// Links lists the edges whose producer and consumer run on different
	// workers, in edge-ID order (nil at P=1). Their buffers are the shared
	// segment's.
	Links []Link
	// Drains[e] lists, in edge-ID order, the shared-segment edges whose
	// cells edge e reuses, whose consumer runs on another worker than e's
	// producer, and which are live in an earlier phase than e (nil at P=1).
	// Before e's producer first writes in a period, each of them must have
	// been read in full. A pair whose later producer runs where the earlier
	// consumer does is ordered by that worker's program order instead.
	Drains [][]sdf.EdgeID
	Layout
}

// Link is a cross-worker edge of a phased program. Its consumer may read a
// token as soon as the producer has published it, not only once the
// producer's phase is over: the buffer holds a whole period's tokens plus
// the delay, so the producer has to wait for room only when more than the
// delay was queued at the start of the period and its consumer runs in an
// earlier phase.
type Link struct {
	Edge sdf.EdgeID
	// Src and Dst are the producing and consuming workers, SrcPhase and
	// DstPhase the phases their actors fire in.
	Src, Dst           int
	SrcPhase, DstPhase int
	// Tokens is how many tokens cross the edge per period: the producer's
	// firings times its rate, which the balance equation makes equal to
	// the consumer's.
	Tokens int64
}

// Ahead reports whether the producer fires in an earlier phase than the
// consumer, so that the consumer may count on every token of the period:
// it then waits on the producer's writes. Otherwise the consumer runs on
// the tokens present when the period starts, and the producer waits on the
// consumer's reads before it reuses their cells.
func (l *Link) Ahead() bool { return l.SrcPhase < l.DstPhase }

// Layout places every edge buffer inside a memory image of Total cells.
// The constructors check that each buffer lies in [0, Total), so executors
// may index the image without bounds failures.
type Layout struct {
	// Names labels each edge's buffer (indexed by edge ID).
	Names []string
	// Offsets and Sizes are each edge buffer's absolute offset and extent
	// in cells.
	Offsets, Sizes []int64
	// Total is the image extent in cells.
	Total int64
}

// Sequential builds the P=1 program of a looped schedule against a shared
// allocation: intervals are indexed by edge ID and each must have a
// placement in a.
func Sequential(s *sched.Schedule, intervals []*lifetime.Interval, a *alloc.Allocation) (*Program, error) {
	n := s.Graph.NumEdges()
	if len(intervals) != n {
		return nil, fmt.Errorf("partition: %d intervals for %d edges", len(intervals), n)
	}
	l := Layout{Names: make([]string, n), Offsets: make([]int64, n), Sizes: make([]int64, n), Total: a.Total}
	for e, iv := range intervals {
		off, ok := a.OffsetOf(iv)
		if !ok {
			return nil, fmt.Errorf("partition: edge %d interval %s not in allocation", e, iv.Name)
		}
		l.Names[e], l.Offsets[e], l.Sizes[e] = iv.Name, off, iv.Size
	}
	if err := l.check(); err != nil {
		return nil, err
	}
	return &Program{P: 1, Phases: [][][]*sched.Node{{s.Body}}, Layout: l}, nil
}

// Phased builds the P-worker program of a partitioning laid out by its
// segmented allocation: one leaf term per firing block.
func Phased(g *sdf.Graph, part *Partitioned, seg *SegAlloc) (*Program, error) {
	n := g.NumEdges()
	if len(seg.Offsets) != n || len(seg.Sizes) != n || len(seg.Intervals) != n || len(seg.EdgeSeg) != n {
		return nil, fmt.Errorf("partition: allocation covers %d edges, graph has %d", len(seg.Offsets), n)
	}
	if len(part.Assign) != g.NumActors() || len(part.PhaseOf) != g.NumActors() {
		return nil, fmt.Errorf("partition: partitioning covers %d actors, graph has %d", len(part.Assign), g.NumActors())
	}
	l := Layout{Names: make([]string, n), Offsets: seg.Offsets, Sizes: seg.Sizes, Total: seg.Total}
	for e, iv := range seg.Intervals {
		l.Names[e] = iv.Name
	}
	if err := l.check(); err != nil {
		return nil, err
	}
	phases := make([][][]*sched.Node, len(part.Phases))
	fired := make([]int64, g.NumActors())
	for ph, phase := range part.Phases {
		if len(phase.Workers) > part.P {
			return nil, fmt.Errorf("partition: phase %d has %d workers, want at most %d", ph, len(phase.Workers), part.P)
		}
		phases[ph] = make([][]*sched.Node, part.P)
		for w, blocks := range phase.Workers {
			for _, blk := range blocks {
				if blk.Actor < 0 || int(blk.Actor) >= len(fired) {
					return nil, fmt.Errorf("partition: phase %d block names actor %d", ph, blk.Actor)
				}
				phases[ph][w] = append(phases[ph][w], &sched.Node{Count: blk.Count, Actor: blk.Actor})
				fired[blk.Actor] += blk.Count
			}
		}
	}
	links, err := crossLinks(g, part, fired)
	if err != nil {
		return nil, err
	}
	return &Program{P: part.P, Phases: phases, Links: links, Drains: drains(g, part, seg), Layout: l}, nil
}

// crossLinks lists the edges whose endpoints the partitioning places on
// different workers; fired holds each actor's firings per period.
func crossLinks(g *sdf.Graph, part *Partitioned, fired []int64) ([]Link, error) {
	var links []Link
	for _, e := range g.Edges() {
		src, dst := part.Assign[e.Src], part.Assign[e.Dst]
		if src == dst {
			continue
		}
		tokens, err := num.CheckedMul(fired[e.Src], e.Prod)
		if err != nil {
			return nil, fmt.Errorf("partition: edge %d tokens per period: %w", e.ID, err)
		}
		links = append(links, Link{
			Edge: e.ID, Src: src, Dst: dst,
			SrcPhase: part.PhaseOf[e.Src], DstPhase: part.PhaseOf[e.Dst],
			Tokens: tokens,
		})
	}
	return links, nil
}

// drains derives Program.Drains from the shared segment's packing: two of
// its buffers share cells only when their phase intervals are disjoint,
// and the later one drains the earlier one when the earlier consumer runs
// on another worker than the later producer.
func drains(g *sdf.Graph, part *Partitioned, seg *SegAlloc) [][]sdf.EdgeID {
	shared := seg.SharedIndex()
	var edges []sdf.Edge
	for _, e := range g.Edges() {
		if seg.EdgeSeg[e.ID] == shared {
			edges = append(edges, e)
		}
	}
	out := make([][]sdf.EdgeID, g.NumEdges())
	for _, e := range edges {
		later := seg.Intervals[e.ID]
		for _, d := range edges {
			earlier := seg.Intervals[d.ID]
			if earlier.Start+earlier.Dur > later.Start || part.Assign[d.Dst] == part.Assign[e.Src] {
				continue
			}
			if seg.Offsets[d.ID] < seg.Offsets[e.ID]+seg.Sizes[e.ID] && seg.Offsets[e.ID] < seg.Offsets[d.ID]+seg.Sizes[d.ID] {
				out[e.ID] = append(out[e.ID], d.ID)
			}
		}
	}
	return out
}

// check bounds every buffer inside the image.
func (l *Layout) check() error {
	if l.Total < 0 {
		return fmt.Errorf("partition: image of %d cells", l.Total)
	}
	for e, off := range l.Offsets {
		if size := l.Sizes[e]; off < 0 || size < 1 || off > l.Total-size {
			return fmt.Errorf("partition: edge %d buffer [%d,%d) outside image of %d cells",
				e, off, off+size, l.Total)
		}
	}
	return nil
}
