package partition_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// prep compiles the scheduling prefix a partitioning needs: repetitions and
// a topological order.
func prep(t *testing.T, g *sdf.Graph) (sdf.Repetitions, []sdf.ActorID) {
	t.Helper()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalSort(q)
	if err != nil {
		t.Fatal(err)
	}
	return q, order
}

// checkInvariants asserts the structural partition invariants directly:
// every phase lists the workers up to the last one that holds an actor,
// every actor fires exactly q(a) times in exactly one (phase, worker) slot,
// precedence edges cross phases forward, and same-phase edges stay on one
// worker.
func checkInvariants(t *testing.T, g *sdf.Graph, q sdf.Repetitions, p *partition.Partitioned, label string) {
	t.Helper()
	seen, busy := make([]int, g.NumActors()), 0
	for _, w := range p.Assign {
		busy = max(busy, w+1)
	}
	for ph, phase := range p.Phases {
		if len(phase.Workers) != busy || busy > p.P {
			t.Fatalf("%s: phase %d has %d worker lists, want %d of %d", label, ph, len(phase.Workers), busy, p.P)
		}
		for w, blocks := range phase.Workers {
			for _, blk := range blocks {
				seen[blk.Actor]++
				if blk.Count != q.Q(blk.Actor) {
					t.Errorf("%s: actor %d fires %d times, q says %d", label, blk.Actor, blk.Count, q.Q(blk.Actor))
				}
				if p.PhaseOf[blk.Actor] != ph || p.Assign[blk.Actor] != w {
					t.Errorf("%s: actor %d scheduled at (%d,%d), maps say (%d,%d)",
						label, blk.Actor, ph, w, p.PhaseOf[blk.Actor], p.Assign[blk.Actor])
				}
			}
		}
	}
	for a, n := range seen {
		if n != 1 {
			t.Errorf("%s: actor %d appears in %d blocks, want exactly 1", label, a, n)
		}
	}
	for _, e := range g.Edges() {
		if sdf.PrecedenceEdge(g, q, e.ID) && p.PhaseOf[e.Dst] <= p.PhaseOf[e.Src] {
			t.Errorf("%s: precedence edge %d does not cross phases (%d -> %d)",
				label, e.ID, p.PhaseOf[e.Src], p.PhaseOf[e.Dst])
		}
		if p.PhaseOf[e.Src] == p.PhaseOf[e.Dst] && p.Assign[e.Src] != p.Assign[e.Dst] {
			t.Errorf("%s: same-phase edge %d spans workers %d and %d",
				label, e.ID, p.Assign[e.Src], p.Assign[e.Dst])
		}
	}
}

func TestRunSingleWorker(t *testing.T) {
	g := systems.CDDAT()
	q, order := prep(t, g)
	p, err := partition.Run(g, q, order, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 1 {
		t.Fatalf("P = %d, want 1", p.P)
	}
	for a, w := range p.Assign {
		if w != 0 {
			t.Errorf("actor %d on worker %d with a single worker", a, w)
		}
	}
	checkInvariants(t, g, q, p, "cddat/p1")
}

func TestRunTable1Invariants(t *testing.T) {
	for _, g := range systems.Table1Systems() {
		q, order := prep(t, g)
		for _, workers := range []int{2, 4} {
			p, err := partition.Run(g, q, order, workers)
			if err != nil {
				t.Fatalf("%s/p%d: %v", g.Name, workers, err)
			}
			checkInvariants(t, g, q, p, g.Name)
			var total int64
			for _, l := range p.Load {
				if l < 0 {
					t.Errorf("%s/p%d: negative worker load %d", g.Name, workers, l)
				}
				total += l
			}
			if total == 0 {
				t.Errorf("%s/p%d: zero total load", g.Name, workers)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g := systems.SatelliteReceiver()
	q, order := prep(t, g)
	a, err := partition.Run(g, q, order, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := partition.Run(g, q, order, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical Run calls produced different partitionings")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g := systems.CDDAT()
	q, order := prep(t, g)
	if _, err := partition.Run(g, q, order, 0); err == nil {
		t.Error("worker count 0 accepted")
	}
	if _, err := partition.Run(g, q, order[:1], 2); err == nil {
		t.Error("truncated order accepted")
	}
	bad := append([]sdf.ActorID(nil), order...)
	bad[0] = bad[1] // duplicate: not a permutation
	if _, err := partition.Run(g, q, bad, 2); err == nil {
		t.Error("non-permutation order accepted")
	}
}

func TestRebuildRoundTrip(t *testing.T) {
	for _, g := range systems.Table1Systems() {
		q, order := prep(t, g)
		p, err := partition.Run(g, q, order, 4)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		r, err := partition.Rebuild(g, q, order, p.P, p.Assign, p.PhaseOf)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", g.Name, err)
		}
		if !reflect.DeepEqual(p, r) {
			t.Errorf("%s: rebuild differs from the original partitioning", g.Name)
		}
	}
}

func TestRebuildRejectsCorruption(t *testing.T) {
	g := systems.SatelliteReceiver()
	q, order := prep(t, g)
	p, err := partition.Run(g, q, order, 2)
	if err != nil {
		t.Fatal(err)
	}

	badAssign := append([]int(nil), p.Assign...)
	badAssign[0] = 7 // out of [0, P)
	if _, err := partition.Rebuild(g, q, order, p.P, badAssign, p.PhaseOf); err == nil {
		t.Error("out-of-range worker assignment accepted")
	}

	// Collapse every phase to 0: precedence edges no longer cross phases.
	flat := make([]int, len(p.PhaseOf))
	if _, err := partition.Rebuild(g, q, order, p.P, p.Assign, flat); err == nil {
		t.Error("phase map violating precedence accepted")
	}
}

// TestRebuildRejectsPhaseBeyondActors: phases are longest-path levels, so
// every valid phase is below the actor count. A stored phase of n or more
// must be rejected before the phase lists are allocated, one per phase: a
// phase near 2^40 would otherwise ask for terabytes.
func TestRebuildRejectsPhaseBeyondActors(t *testing.T) {
	g := systems.SatelliteReceiver()
	q, order := prep(t, g)
	p, err := partition.Run(g, q, order, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumActors()
	last := order[n-1] // a sink: raising its phase keeps every edge forward
	for _, phase := range []int{n, 2 * n} {
		phaseOf := append([]int(nil), p.PhaseOf...)
		phaseOf[last] = phase
		_, err := partition.Rebuild(g, q, order, p.P, p.Assign, phaseOf)
		if err == nil {
			t.Fatalf("phase %d of %d actors accepted", phase, n)
		}
		if want := fmt.Sprintf("phase %d outside [0,%d)", phase, n); !strings.Contains(err.Error(), want) {
			t.Errorf("phase %d: error %q does not say %q", phase, err, want)
		}
	}
	phaseOf := append([]int(nil), p.PhaseOf...)
	phaseOf[last] = n - 1
	if _, err := partition.Rebuild(g, q, order, p.P, p.Assign, phaseOf); err != nil {
		t.Errorf("phase n-1 rejected: %v", err)
	}
}

func TestAllocateSegmentLayout(t *testing.T) {
	for _, g := range systems.Table1Systems() {
		q, order := prep(t, g)
		p, err := partition.Run(g, q, order, 3)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		seg, err := partition.Allocate(g, q, p)
		if err != nil {
			t.Fatalf("%s: allocate: %v", g.Name, err)
		}
		if len(seg.Segments) != p.P+1 {
			t.Fatalf("%s: %d segments for %d workers", g.Name, len(seg.Segments), p.P)
		}
		var sum int64
		for si, s := range seg.Segments {
			wantWorker := si
			if si == seg.SharedIndex() {
				wantWorker = partition.SharedWorker
			}
			if s.Worker != wantWorker {
				t.Errorf("%s: segment %d owned by %d, want %d", g.Name, si, s.Worker, wantWorker)
			}
			if s.Base != sum {
				t.Errorf("%s: segment %d base %d, want %d (segments must be back to back)",
					g.Name, si, s.Base, sum)
			}
			sum += s.Cells
		}
		if sum != seg.Total {
			t.Errorf("%s: segment cells sum to %d, Total says %d", g.Name, sum, seg.Total)
		}
		for _, e := range g.Edges() {
			si := seg.EdgeSeg[e.ID]
			wantSeg := seg.SharedIndex()
			if p.Assign[e.Src] == p.Assign[e.Dst] {
				wantSeg = p.Assign[e.Src]
			}
			if si != wantSeg {
				t.Errorf("%s: edge %d routed to segment %d, want %d", g.Name, e.ID, si, wantSeg)
			}
			s := seg.Segments[si]
			if seg.Offset(e.ID) < s.Base || seg.Offset(e.ID)+seg.Size(e.ID) > s.Base+s.Cells {
				t.Errorf("%s: edge %d buffer [%d,%d) outside its segment [%d,%d)",
					g.Name, e.ID, seg.Offset(e.ID), seg.Offset(e.ID)+seg.Size(e.ID), s.Base, s.Base+s.Cells)
			}
		}
	}
}

func TestEdgeIntervalsPhaseAxis(t *testing.T) {
	g := systems.CDDAT()
	q, order := prep(t, g)
	p, err := partition.Run(g, q, order, 2)
	if err != nil {
		t.Fatal(err)
	}
	ivs, sizes, err := partition.EdgeIntervals(g, q, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		iv := ivs[e.ID]
		tnse, err := sdf.TNSE(g, q, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		words := e.Words
		if words < 1 {
			words = 1
		}
		if want := (e.Delay + tnse) * words; sizes[e.ID] != want || iv.Size != want {
			t.Errorf("edge %d size %d/%d, want %d", e.ID, sizes[e.ID], iv.Size, want)
		}
		if e.Delay == 0 {
			if iv.Start != int64(p.PhaseOf[e.Src]) || iv.Start+iv.Dur-1 != int64(p.PhaseOf[e.Dst]) {
				t.Errorf("edge %d live [%d,%d), want [phase(src)=%d, phase(dst)=%d]",
					e.ID, iv.Start, iv.Start+iv.Dur, p.PhaseOf[e.Src], p.PhaseOf[e.Dst])
			}
		} else if iv.Start != 0 || iv.Dur != int64(p.NumPhases) {
			t.Errorf("delayed edge %d live [%d,%d), want the whole period [0,%d)",
				e.ID, iv.Start, iv.Start+iv.Dur, p.NumPhases)
		}
	}
}

func TestRebuildSegRoundTrip(t *testing.T) {
	g := systems.SatelliteReceiver()
	q, order := prep(t, g)
	p, err := partition.Run(g, q, order, 2)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := partition.Allocate(g, q, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := partition.RebuildSeg(g, q, p, seg.EdgeSeg, seg.Offsets, seg.Segments, seg.Total)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seg, r) {
		t.Error("rebuilt segmented allocation differs from the original")
	}

	badOff := append([]int64(nil), seg.Offsets...)
	badOff[0] = seg.Total + 100 // escapes every segment
	if _, err := partition.RebuildSeg(g, q, p, seg.EdgeSeg, badOff, seg.Segments, seg.Total); err == nil {
		t.Error("out-of-segment buffer offset accepted")
	}
	badSegs := append([]partition.Segment(nil), seg.Segments...)
	badSegs[0].Cells++ // breaks the back-to-back layout
	if _, err := partition.RebuildSeg(g, q, p, seg.EdgeSeg, seg.Offsets, badSegs, seg.Total); err == nil {
		t.Error("inconsistent segment layout accepted")
	}
}
