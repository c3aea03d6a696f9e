package check

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sdf"
	"repro/internal/sim"
)

// Partition verifies a P-way phased partitioning against the graph and
// repetitions vector it was computed from, recomputing every invariant from
// first principles:
//
//   - assigned-once: every actor appears in exactly one (phase, worker) block,
//     firing exactly q(a) times, and the Assign/PhaseOf maps agree with the
//     block placement;
//   - phase-precedence: every precedence edge crosses phases forward, so a
//     consumer's phase begins only after the barrier that ends its producer's;
//   - barrier-read: every edge whose endpoints share a phase stays on one
//     worker — cross-worker buffer traffic must always be separated by a
//     barrier, delays notwithstanding, because the FIFO cursors themselves
//     are unsynchronized.
func Partition(g *sdf.Graph, q sdf.Repetitions, p *partition.Partitioned) error {
	if p == nil {
		return violationf(StagePartition, "missing", "no partitioning")
	}
	if p.P < 1 {
		return violationf(StagePartition, "shape", "worker count %d", p.P)
	}
	if len(p.Phases) != p.NumPhases {
		return violationf(StagePartition, "shape",
			"%d phases materialized but NumPhases says %d", len(p.Phases), p.NumPhases)
	}
	if len(p.Assign) != g.NumActors() || len(p.PhaseOf) != g.NumActors() {
		return violationf(StagePartition, "shape",
			"maps cover %d/%d actors, graph has %d", len(p.Assign), len(p.PhaseOf), g.NumActors())
	}
	seen := make([]int, g.NumActors())
	for ph, phase := range p.Phases {
		if len(phase.Workers) > p.P {
			return violationf(StagePartition, "shape",
				"phase %d has %d worker lists for %d workers", ph, len(phase.Workers), p.P)
		}
		for w, blocks := range phase.Workers {
			for _, blk := range blocks {
				if blk.Actor < 0 || int(blk.Actor) >= g.NumActors() {
					return violationf(StagePartition, "assigned-once", "block names actor %d", blk.Actor)
				}
				seen[blk.Actor]++
				if seen[blk.Actor] > 1 {
					return violationf(StagePartition, "assigned-once",
						"actor %s appears in more than one block", g.Actor(blk.Actor).Name)
				}
				if blk.Count != q.Q(blk.Actor) {
					return violationf(StagePartition, "assigned-once",
						"actor %s fires %d times, repetitions say %d",
						g.Actor(blk.Actor).Name, blk.Count, q.Q(blk.Actor))
				}
				if p.PhaseOf[blk.Actor] != ph || p.Assign[blk.Actor] != w {
					return violationf(StagePartition, "assigned-once",
						"actor %s scheduled at phase %d worker %d but the maps say (%d,%d)",
						g.Actor(blk.Actor).Name, ph, w, p.PhaseOf[blk.Actor], p.Assign[blk.Actor])
				}
			}
		}
	}
	for a, n := range seen {
		if n != 1 {
			return violationf(StagePartition, "assigned-once",
				"actor %s appears in %d blocks", g.Actor(sdf.ActorID(a)).Name, n)
		}
	}
	for _, e := range g.Edges() {
		if sdf.PrecedenceEdge(g, q, e.ID) && p.PhaseOf[e.Dst] <= p.PhaseOf[e.Src] {
			return violationf(StagePartition, "phase-precedence",
				"precedence edge %s->%s runs phase %d to phase %d without a barrier between",
				g.Actor(e.Src).Name, g.Actor(e.Dst).Name, p.PhaseOf[e.Src], p.PhaseOf[e.Dst])
		}
		if p.PhaseOf[e.Src] == p.PhaseOf[e.Dst] && p.Assign[e.Src] != p.Assign[e.Dst] {
			return violationf(StagePartition, "barrier-read",
				"edge %s->%s spans workers %d and %d inside phase %d",
				g.Actor(e.Src).Name, g.Actor(e.Dst).Name,
				p.Assign[e.Src], p.Assign[e.Dst], p.PhaseOf[e.Src])
		}
	}
	return nil
}

// phaseWindow is an edge buffer's liveness on the phase axis, recomputed from
// the partitioning alone: a delayless buffer is live from its producing phase
// through its consuming phase; a delay-carrying buffer holds tokens across
// the period boundary and is live everywhere.
func phaseWindow(e sdf.Edge, p *partition.Partitioned) (lo, hi int) {
	if e.Delay > 0 {
		return 0, p.NumPhases - 1
	}
	return p.PhaseOf[e.Src], p.PhaseOf[e.Dst]
}

// Segments verifies a segmented allocation against the partitioning it was
// packed for: the per-worker-plus-shared segment layout tiles the image back
// to back, every edge buffer is routed to its owning worker's segment (or to
// the shared segment when its endpoints sit on different workers), sized for
// the edge's worst-case token population, placed inside its segment, and —
// segment-disjointness — no two buffers live during the same phase share
// memory cells.
func Segments(g *sdf.Graph, q sdf.Repetitions, p *partition.Partitioned, seg *partition.SegAlloc) error {
	if seg == nil {
		return violationf(StageSegments, "missing", "no segmented allocation")
	}
	if len(seg.Segments) != p.P+1 {
		return violationf(StageSegments, "layout",
			"%d segments for %d workers, want %d (one per worker plus shared)",
			len(seg.Segments), p.P, p.P+1)
	}
	var base int64
	for si, s := range seg.Segments {
		wantWorker := si
		if si == seg.SharedIndex() {
			wantWorker = partition.SharedWorker
		}
		if s.Worker != wantWorker {
			return violationf(StageSegments, "layout",
				"segment %d owned by worker %d, want %d", si, s.Worker, wantWorker)
		}
		if s.Cells < 0 || s.Base != base {
			return violationf(StageSegments, "layout",
				"segment %d spans [%d,%d), want base %d (segments tile back to back)",
				si, s.Base, s.Base+s.Cells, base)
		}
		base += s.Cells
	}
	if base != seg.Total {
		return violationf(StageSegments, "layout",
			"segment cells sum to %d but Total says %d", base, seg.Total)
	}
	if len(seg.Offsets) != g.NumEdges() || len(seg.Sizes) != g.NumEdges() || len(seg.EdgeSeg) != g.NumEdges() {
		return violationf(StageSegments, "layout",
			"allocation covers %d/%d/%d edges, graph has %d",
			len(seg.Offsets), len(seg.Sizes), len(seg.EdgeSeg), g.NumEdges())
	}
	for _, e := range g.Edges() {
		wantSeg := seg.SharedIndex()
		if p.Assign[e.Src] == p.Assign[e.Dst] {
			wantSeg = p.Assign[e.Src]
		}
		si := seg.EdgeSeg[e.ID]
		if si != wantSeg {
			return violationf(StageSegments, "routing",
				"edge %s->%s routed to segment %d, want %d",
				g.Actor(e.Src).Name, g.Actor(e.Dst).Name, si, wantSeg)
		}
		tnse, err := sdf.TNSE(g, q, e.ID)
		if err != nil {
			return fmt.Errorf("check: recomputing TNSE for edge %d: %w", e.ID, err)
		}
		words := e.Words
		if words < 1 {
			words = 1
		}
		if want := (e.Delay + tnse) * words; seg.Size(e.ID) < want {
			return violationf(StageSegments, "size",
				"edge %s->%s buffer holds %d cells but needs %d ((delay %d + TNSE %d) x %d words)",
				g.Actor(e.Src).Name, g.Actor(e.Dst).Name, seg.Size(e.ID), want, e.Delay, tnse, words)
		}
		s := seg.Segments[si]
		if seg.Offset(e.ID) < s.Base || seg.Offset(e.ID)+seg.Size(e.ID) > s.Base+s.Cells {
			return violationf(StageSegments, "bounds",
				"edge %s->%s buffer [%d,%d) escapes segment %d [%d,%d)",
				g.Actor(e.Src).Name, g.Actor(e.Dst).Name,
				seg.Offset(e.ID), seg.Offset(e.ID)+seg.Size(e.ID), si, s.Base, s.Base+s.Cells)
		}
	}
	edges := g.Edges()
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			ei, ej := edges[i], edges[j]
			loI, hiI := phaseWindow(ei, p)
			loJ, hiJ := phaseWindow(ej, p)
			if hiI < loJ || hiJ < loI {
				continue // never live in the same phase
			}
			oi, oj := seg.Offset(ei.ID), seg.Offset(ej.ID)
			if oi < oj+seg.Size(ej.ID) && oj < oi+seg.Size(ei.ID) {
				return violationf(StageSegments, "disjoint",
					"buffers %s->%s at [%d,%d) and %s->%s at [%d,%d) are live together but share cells",
					g.Actor(ei.Src).Name, g.Actor(ei.Dst).Name, oi, oi+seg.Size(ei.ID),
					g.Actor(ej.Src).Name, g.Actor(ej.Dst).Name, oj, oj+seg.Size(ej.ID))
			}
		}
	}
	return nil
}

// Drains verifies the cross-worker order a self-timed executor of the
// phased program relies on, recomputing every edge's phase window and
// worker placement from the partitioning:
//
//   - link: the program's links are exactly the edges whose endpoints sit
//     on different workers, in edge-ID order, each naming its endpoints'
//     workers and phases and the period's token count q(src)·prod;
//   - drain-order: when two shared-segment buffers share cells, the later
//     one's producer sits on another worker than the earlier one's
//     consumer, and the earlier one is not live when the later one starts,
//     the later edge lists the earlier one among its drains;
//   - drain-backward: every drain names a shared-segment edge whose
//     consumer fires in an earlier phase than the draining edge's producer.
//
// Link waits point backward in phase order by construction (a consumer
// waits on its producer's writes only when the producer's phase is the
// earlier one, a producer on its consumer's reads only when the consumer's
// is). With every drain backward too, no firing waits on a firing of its
// own or a later phase, which rules out a deadlock among the workers.
func Drains(g *sdf.Graph, q sdf.Repetitions, p *partition.Partitioned, seg *partition.SegAlloc, prog *partition.Program) error {
	cross := func(e sdf.Edge) bool { return p.Assign[e.Src] != p.Assign[e.Dst] }
	next := 0
	for _, e := range g.Edges() {
		if !cross(e) {
			continue
		}
		if next >= len(prog.Links) || prog.Links[next].Edge != e.ID {
			return violationf(StageSegments, "link",
				"cross-worker edge %s->%s has no link in edge-ID order", g.Actor(e.Src).Name, g.Actor(e.Dst).Name)
		}
		l := prog.Links[next]
		next++
		want := partition.Link{
			Edge: e.ID, Src: p.Assign[e.Src], Dst: p.Assign[e.Dst],
			SrcPhase: p.PhaseOf[e.Src], DstPhase: p.PhaseOf[e.Dst],
			Tokens: q.Q(e.Src) * e.Prod,
		}
		if l != want {
			return violationf(StageSegments, "link",
				"edge %s->%s linked as %+v, want %+v", g.Actor(e.Src).Name, g.Actor(e.Dst).Name, l, want)
		}
	}
	if next != len(prog.Links) {
		return violationf(StageSegments, "link",
			"%d links for %d cross-worker edges", len(prog.Links), next)
	}
	if len(prog.Drains) != g.NumEdges() {
		return violationf(StageSegments, "drain-order",
			"%d drain lists for %d edges", len(prog.Drains), g.NumEdges())
	}
	edges := g.Edges()
	for _, e := range edges {
		listed := make(map[sdf.EdgeID]bool, len(prog.Drains[e.ID]))
		for _, d := range prog.Drains[e.ID] {
			if d < 0 || int(d) >= len(edges) || !cross(edges[d]) || !cross(e) {
				return violationf(StageSegments, "drain-backward",
					"edge %s->%s drains edge %d, outside the shared segment",
					g.Actor(e.Src).Name, g.Actor(e.Dst).Name, d)
			}
			if de := edges[d]; p.PhaseOf[de.Dst] >= p.PhaseOf[e.Src] {
				return violationf(StageSegments, "drain-backward",
					"edge %s->%s (producer in phase %d) drains %s->%s, read in phase %d",
					g.Actor(e.Src).Name, g.Actor(e.Dst).Name, p.PhaseOf[e.Src],
					g.Actor(de.Src).Name, g.Actor(de.Dst).Name, p.PhaseOf[de.Dst])
			}
			listed[d] = true
		}
		if !cross(e) {
			continue
		}
		lo, _ := phaseWindow(e, p)
		for _, d := range edges {
			if !cross(d) || p.Assign[d.Dst] == p.Assign[e.Src] || listed[d.ID] {
				continue
			}
			if _, hi := phaseWindow(d, p); hi >= lo {
				continue
			}
			od, oe := seg.Offset(d.ID), seg.Offset(e.ID)
			if od < oe+seg.Size(e.ID) && oe < od+seg.Size(d.ID) {
				return violationf(StageSegments, "drain-order",
					"buffers %s->%s and %s->%s share cells across workers %d and %d, but no drain orders them",
					g.Actor(d.Src).Name, g.Actor(d.Dst).Name, g.Actor(e.Src).Name, g.Actor(e.Dst).Name,
					p.Assign[d.Dst], p.Assign[e.Src])
			}
		}
	}
	return nil
}

// PhasedMemory runs the token-level phased simulator — self-timed over the
// program's links and drains, once per root worker, on the caller's
// goroutine — against the segmented image for several periods: token
// corruption, count drift or a deadlock here means the partitioning or the
// segmented packing is wrong in a way the static rules missed.
func PhasedMemory(res *core.Result, opt Options) error {
	if err := sim.RunPhased(res.Graph, res.Partition, res.Segmented, opt.simPeriods()); err != nil {
		return violationf(StageSegments, "token-level", "%v", err)
	}
	return nil
}

// PhasedRuntime differentially tests the phased float64 engine against the
// sequential engine: both run the same deterministic synthetic actors for
// several periods, and the queue contents on every edge must match exactly
// at every period boundary (SDF determinism makes the interleaving
// invisible). Systems with vector tokens are outside the scalar engines'
// domain and are skipped.
func PhasedRuntime(res *core.Result, opt Options) error {
	g := res.Graph
	for _, e := range g.Edges() {
		if e.Words > 1 {
			return nil
		}
	}
	mkFires := func() map[sdf.ActorID]runtime.Fire {
		fires := make(map[sdf.ActorID]runtime.Fire, g.NumActors())
		firings := make([]int64, g.NumActors())
		for _, actor := range g.Actors() {
			id := actor.ID
			fires[id] = func(inputs [][]float64) [][]float64 {
				outputs := synthFire(g, id, firings[id], inputs)
				firings[id]++
				return outputs
			}
		}
		return fires
	}
	seqEng, err := runtime.New(res, mkFires())
	if err != nil {
		return violationf(StageRuntime, "phased-engine", "sequential engine: %v", err)
	}
	parEng, err := runtime.NewPhased(res, mkFires())
	if err != nil {
		return violationf(StageRuntime, "phased-engine", "%v", err)
	}
	for p := 0; p < opt.simPeriods(); p++ {
		if err := seqEng.RunPeriod(); err != nil {
			return violationf(StageRuntime, "phased-engine", "sequential period %d: %v", p, err)
		}
		if err := parEng.RunPeriod(); err != nil {
			return violationf(StageRuntime, "phased-engine", "phased period %d: %v", p, err)
		}
		for _, e := range g.Edges() {
			sq, pq := seqEng.TokensOn(e.ID), parEng.TokensOn(e.ID)
			if !equalFloats(sq, pq) {
				return violationf(StageRuntime, "phased-trace",
					"period %d edge %s->%s: sequential engine leaves tokens %v, phased engine %v",
					p, g.Actor(e.Src).Name, g.Actor(e.Dst).Name, sq, pq)
			}
		}
	}
	return nil
}

// ThreadedCodegen cross-checks the generated pthread C against the
// partitioned result it was rendered from: generation is deterministic, the
// worker count and memory extent match the partitioning, and every edge's
// offset macro points into the segmented image where the allocator placed it.
func ThreadedCodegen(res *core.Result) error {
	src := codegen.GenerateThreadedC(res)
	if src == "" {
		return violationf(StageCodegen, "threaded", "partitioned result generated no threaded C")
	}
	if again := codegen.GenerateThreadedC(res); again != src {
		return violationf(StageCodegen, "deterministic", "two threaded generations of %q differ", res.Graph.Name)
	}
	if want := fmt.Sprintf("#define WORKERS %d\n", res.Partition.P); !strings.Contains(src, want) {
		return violationf(StageCodegen, "threaded", "threaded C lacks %q", strings.TrimSpace(want))
	}
	memSize := res.Segmented.Total
	if memSize < 1 {
		memSize = 1
	}
	if want := fmt.Sprintf("#define MEM_SIZE %dL\n", memSize); !strings.Contains(src, want) {
		return violationf(StageCodegen, "threaded", "threaded C lacks %q", strings.TrimSpace(want))
	}
	for _, e := range res.Graph.Edges() {
		want := fmt.Sprintf("#define E%d_OFF %dL", e.ID, res.Segmented.Offset(e.ID))
		if !strings.Contains(src, want) {
			return violationf(StageCodegen, "threaded",
				"threaded C lacks %q for edge %d", want, e.ID)
		}
	}
	return nil
}

// partitionPipeline runs every partition-stage oracle over a partitioned
// compilation result, mirroring Pipeline's stage order for the parallel half
// of the pipeline. Pipeline calls it when a partitioning is present.
func partitionPipeline(res *core.Result, opt Options) error {
	g := res.Graph
	if err := Partition(g, res.Repetitions, res.Partition); err != nil {
		return err
	}
	if err := Segments(g, res.Repetitions, res.Partition, res.Segmented); err != nil {
		return err
	}
	if res.Metrics.ParallelTotal != res.Segmented.Total {
		return violationf(StageSegments, "metrics",
			"Metrics.ParallelTotal %d != segmented image total %d",
			res.Metrics.ParallelTotal, res.Segmented.Total)
	}
	prog, err := partition.Phased(g, res.Partition, res.Segmented)
	if err != nil {
		return violationf(StageSegments, "program", "%v", err)
	}
	if err := Drains(g, res.Repetitions, res.Partition, res.Segmented, prog); err != nil {
		return err
	}
	if err := PhasedMemory(res, opt); err != nil {
		return err
	}
	if err := ThreadedCodegen(res); err != nil {
		return err
	}
	return PhasedRuntime(res, opt)
}
