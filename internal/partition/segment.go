package partition

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/num"
	"repro/internal/sdf"
)

// SharedWorker marks the cross-worker segment in Segment.Worker.
const SharedWorker = -1

// Segment is one region of the combined memory image: a private region for
// one worker's intra-partition edges, or the single shared region holding
// every cross-worker edge. Segments are laid out back to back — workers
// 0..P-1 first, the shared segment last.
type Segment struct {
	// Worker owns the segment, or SharedWorker for the cross-worker one.
	Worker int
	// Base is the segment's start offset in the combined image.
	Base int64
	// Cells is the segment's packed extent (first-fit total).
	Cells int64
}

// SegAlloc is the per-segment storage allocation of a phased schedule:
// every edge buffer gets a lifetime interval on the phase axis, intervals
// are grouped by segment (the owning worker for intra-worker edges, the
// shared segment for cross-worker ones), and each group is packed
// independently by first-fit. Cross-segment sharing is deliberately
// impossible — a worker's private segment is never touched by another
// goroutine, which is what makes the phased executors race-free.
type SegAlloc struct {
	// Intervals holds the phase-axis lifetime per edge (indexed by edge ID).
	Intervals []*lifetime.Interval
	// EdgeSeg maps each edge to its index in Segments.
	EdgeSeg []int
	// Offsets is each edge buffer's absolute offset in the combined image
	// (segment base + first-fit placement).
	Offsets []int64
	// Sizes is each edge buffer's extent in cells: (delay + TNSE) * words,
	// enough for the worst case of a producer's whole period completing
	// before the consumer starts.
	Sizes []int64
	// Segments lists worker segments 0..P-1 followed by the shared segment.
	Segments []Segment
	// Total is the combined image extent (sum of segment cells).
	Total int64
}

// Offset returns the absolute offset of an edge's buffer.
func (sa *SegAlloc) Offset(e sdf.EdgeID) int64 { return sa.Offsets[e] }

// Size returns an edge buffer's extent in cells.
func (sa *SegAlloc) Size(e sdf.EdgeID) int64 { return sa.Sizes[e] }

// SharedIndex returns the shared segment's index in Segments.
func (sa *SegAlloc) SharedIndex() int { return len(sa.Segments) - 1 }

// EdgeIntervals derives every edge's phase-axis lifetime interval and
// buffer size for a partitioning. Pure arithmetic over (graph, q, phases) —
// the store decode path calls it instead of persisting intervals.
//
// The lifetime model: a delayless edge (always a precedence edge) is written
// during its producer's phase and drained during its consumer's strictly
// later phase, so it is live on [phase(src), phase(dst)]. An edge with
// initial tokens is live from time zero (the tokens exist before the first
// firing) and, conservatively, for the whole period — delay-broken edges
// never return to empty mid-period and delayed precedence edges keep their
// delay tokens across the period boundary.
func EdgeIntervals(g *sdf.Graph, q sdf.Repetitions, part *Partitioned) ([]*lifetime.Interval, []int64, error) {
	ivs := make([]*lifetime.Interval, g.NumEdges())
	sizes := make([]int64, g.NumEdges())
	for _, e := range g.Edges() {
		tnse, err := sdf.TNSE(g, q, e.ID)
		if err != nil {
			return nil, nil, fmt.Errorf("partition: edge %d: %w", e.ID, err)
		}
		tokens, err := num.CheckedAdd(e.Delay, tnse)
		if err != nil {
			return nil, nil, fmt.Errorf("partition: edge %d size: %w", e.ID, err)
		}
		words := e.Words
		if words < 1 {
			words = 1
		}
		size, err := num.CheckedMul(tokens, words)
		if err != nil {
			return nil, nil, fmt.Errorf("partition: edge %d size: %w", e.ID, err)
		}
		name := g.Actor(e.Src).Name + "->" + g.Actor(e.Dst).Name
		iv := &lifetime.Interval{Name: name, Size: size}
		if e.Delay == 0 {
			iv.Start = int64(part.PhaseOf[e.Src])
			iv.Dur = int64(part.PhaseOf[e.Dst]-part.PhaseOf[e.Src]) + 1
		} else {
			iv.Start = 0
			iv.Dur = int64(part.NumPhases)
		}
		if err := iv.Validate(); err != nil {
			return nil, nil, fmt.Errorf("partition: edge %d: %w", e.ID, err)
		}
		ivs[e.ID] = iv
		sizes[e.ID] = size
	}
	return ivs, sizes, nil
}

// Allocate packs every edge buffer into its segment by first-fit over the
// phase-axis intervals. Intra-worker edges (both endpoints on one worker)
// go to that worker's private segment; everything else goes to the shared
// segment. Buffers sharing cells within a segment never overlap in phase
// time: a barrier after every phase (the threaded C) makes that packing
// race-free, and in the self-timed executors Program.Drains orders the
// shared segment's cross-worker reuse.
func Allocate(g *sdf.Graph, q sdf.Repetitions, part *Partitioned) (*SegAlloc, error) {
	ivs, sizes, err := EdgeIntervals(g, q, part)
	if err != nil {
		return nil, err
	}
	numSegs := part.P + 1
	shared := numSegs - 1
	edgeSeg := make([]int, g.NumEdges())
	groups := make([][]*lifetime.Interval, numSegs)
	for _, e := range g.Edges() {
		si := shared
		if part.Assign[e.Src] == part.Assign[e.Dst] {
			si = part.Assign[e.Src]
		}
		edgeSeg[e.ID] = si
		groups[si] = append(groups[si], ivs[e.ID])
	}

	segments := make([]Segment, numSegs)
	offsets := make([]int64, g.NumEdges())
	var base int64
	for si := range segments {
		worker := si
		if si == shared {
			worker = SharedWorker
		}
		segments[si] = Segment{Worker: worker, Base: base}
		if len(groups[si]) == 0 {
			continue
		}
		a := alloc.Allocate(groups[si], alloc.FirstFitDuration)
		segments[si].Cells = a.Total
		for _, e := range g.Edges() {
			if edgeSeg[e.ID] != si {
				continue
			}
			off, ok := a.OffsetOf(ivs[e.ID])
			if !ok {
				return nil, fmt.Errorf("partition: edge %d missing from segment %d allocation", e.ID, si)
			}
			offsets[e.ID] = base + off
		}
		if base, err = num.CheckedAdd(base, a.Total); err != nil {
			return nil, fmt.Errorf("partition: segment layout: %w", err)
		}
	}

	return &SegAlloc{
		Intervals: ivs,
		EdgeSeg:   edgeSeg,
		Offsets:   offsets,
		Sizes:     sizes,
		Segments:  segments,
		Total:     base,
	}, nil
}

// RebuildSeg reconstructs a SegAlloc from its persisted projection (the
// store codec's decode path): the per-edge segment routing and absolute
// offsets plus the per-segment extents, with intervals and sizes re-derived
// arithmetically. It validates routing against the partitioning and bounds
// every buffer inside its segment, but does not re-run first-fit — the
// stored offsets are authoritative.
func RebuildSeg(g *sdf.Graph, q sdf.Repetitions, part *Partitioned, edgeSeg []int, offsets []int64, segments []Segment, total int64) (*SegAlloc, error) {
	ivs, sizes, err := EdgeIntervals(g, q, part)
	if err != nil {
		return nil, err
	}
	if len(edgeSeg) != g.NumEdges() || len(offsets) != g.NumEdges() {
		return nil, fmt.Errorf("partition: segalloc rebuild length mismatch (%d edges)", g.NumEdges())
	}
	if len(segments) != part.P+1 {
		return nil, fmt.Errorf("partition: %d segments for %d workers", len(segments), part.P)
	}
	shared := part.P
	var sum int64
	for si, s := range segments {
		wantWorker := si
		if si == shared {
			wantWorker = SharedWorker
		}
		if s.Worker != wantWorker {
			return nil, fmt.Errorf("partition: segment %d owned by worker %d, want %d", si, s.Worker, wantWorker)
		}
		if s.Base != sum || s.Cells < 0 {
			return nil, fmt.Errorf("partition: segment %d layout (base %d, cells %d, expected base %d)",
				si, s.Base, s.Cells, sum)
		}
		if sum, err = num.CheckedAdd(sum, s.Cells); err != nil {
			return nil, fmt.Errorf("partition: segment layout: %w", err)
		}
	}
	if sum != total {
		return nil, fmt.Errorf("partition: segment cells sum to %d, total says %d", sum, total)
	}
	for _, e := range g.Edges() {
		si := shared
		if part.Assign[e.Src] == part.Assign[e.Dst] {
			si = part.Assign[e.Src]
		}
		if edgeSeg[e.ID] != si {
			return nil, fmt.Errorf("partition: edge %d routed to segment %d, want %d", e.ID, edgeSeg[e.ID], si)
		}
		s := segments[si]
		if offsets[e.ID] < s.Base || offsets[e.ID]+sizes[e.ID] > s.Base+s.Cells {
			return nil, fmt.Errorf("partition: edge %d buffer [%d,%d) outside segment %d [%d,%d)",
				e.ID, offsets[e.ID], offsets[e.ID]+sizes[e.ID], si, s.Base, s.Base+s.Cells)
		}
	}
	return &SegAlloc{
		Intervals: ivs,
		EdgeSeg:   edgeSeg,
		Offsets:   offsets,
		Sizes:     sizes,
		Segments:  segments,
		Total:     total,
	}, nil
}
