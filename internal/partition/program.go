package partition

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Program is the one executable form of a compiled system that the
// simulator, the float64 runtime and the C emitters all run: per phase and
// worker, a list of schedule terms fired in order, plus the layout of every
// edge buffer in one memory image. The sequential schedule is the P=1 case
// (one phase whose single worker runs the looped schedule body); a phased
// partitioning gives one leaf term per firing block, with a barrier between
// consecutive phases.
type Program struct {
	// P is the worker count. At P=1 executors run on the caller's
	// goroutine.
	P int
	// Phases[ph][w] holds worker w's terms for phase ph.
	Phases [][][]*sched.Node
	Layout
}

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
	if len(seg.Offsets) != n || len(seg.Sizes) != n || len(seg.Intervals) != n {
		return nil, fmt.Errorf("partition: allocation covers %d edges, graph has %d", len(seg.Offsets), n)
	}
	l := Layout{Names: make([]string, n), Offsets: seg.Offsets, Sizes: seg.Sizes, Total: seg.Total}
	for e, iv := range seg.Intervals {
		l.Names[e] = iv.Name
	}
	if err := l.check(); err != nil {
		return nil, err
	}
	phases := make([][][]*sched.Node, len(part.Phases))
	for ph, phase := range part.Phases {
		if len(phase.Workers) != part.P {
			return nil, fmt.Errorf("partition: phase %d has %d workers, want %d", ph, len(phase.Workers), part.P)
		}
		phases[ph] = make([][]*sched.Node, part.P)
		for w, blocks := range phase.Workers {
			for _, blk := range blocks {
				phases[ph][w] = append(phases[ph][w], &sched.Node{Count: blk.Count, Actor: blk.Actor})
			}
		}
	}
	return &Program{P: part.P, Phases: phases, Layout: l}, nil
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
