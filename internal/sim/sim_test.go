package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/partition"
	"repro/internal/randsdf"
	"repro/internal/sched"
	"repro/internal/schedtree"
	"repro/internal/sdf"
)

// pipeline compiles a schedule down to lifetimes + allocation for testing.
func pipeline(t *testing.T, g *sdf.Graph, text string, strat alloc.Strategy) (
	*sched.Schedule, []*lifetime.Interval, *alloc.Allocation) {
	t.Helper()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	s := sched.MustParse(g, text)
	if err := s.Validate(q); err != nil {
		t.Fatalf("schedule %q: %v", text, err)
	}
	tr, err := schedtree.FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := tr.Lifetimes(q)
	if err != nil {
		t.Fatal(err)
	}
	a := alloc.Allocate(ivs, strat)
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	return s, ivs, a
}

func TestRunChain(t *testing.T) {
	g := sdf.New("chain")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 2, 1, 0)
	g.AddEdge(b, c, 1, 3, 0)
	for _, text := range []string{"(3A)(6B)(2C)", "(3A(2B))(2C)"} {
		s, ivs, al := pipeline(t, g, text, alloc.FirstFitDuration)
		if err := Run(s, ivs, al, 3); err != nil {
			t.Errorf("%s: %v", text, err)
		}
	}
}

func TestRunWithDelays(t *testing.T) {
	g := sdf.New("delay")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 2, 1, 1)
	s, ivs, al := pipeline(t, g, "(A(2B))", alloc.FirstFitStart)
	if err := Run(s, ivs, al, 4); err != nil {
		t.Error(err)
	}
}

func TestRunDetectsClobber(t *testing.T) {
	// Force two time-overlapping buffers onto the same cells: A->B and A->C
	// both live while A fires.
	g := sdf.New("bad")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 1, 1, 0)
	g.AddEdge(a, c, 1, 1, 0)
	q, _ := g.Repetitions()
	s := sched.MustParse(g, "ABC")
	tr, err := schedtree.FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := tr.Lifetimes(q)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately broken allocation: both buffers at offset 0.
	bad := &alloc.Allocation{
		Placements: []alloc.Placement{
			{Interval: ivs[0], Offset: 0},
			{Interval: ivs[1], Offset: 0},
		},
		Total: 1,
	}
	err = Run(s, ivs, bad, 1)
	if err == nil {
		t.Fatal("clobbering allocation passed the simulator")
	}
	if !strings.Contains(err.Error(), "clobber") && !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("unexpected error kind: %v", err)
	}
}

func TestRunDetectsBadSchedule(t *testing.T) {
	g := sdf.New("under")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 1, 1, 0)
	// B first: underflow.
	s := sched.MustParse(g, "BA")
	iv := &lifetime.Interval{Name: "x", Size: 1, Start: 0, Dur: 2}
	al := &alloc.Allocation{Placements: []alloc.Placement{{Interval: iv, Offset: 0}}, Total: 1}
	if err := Run(s, []*lifetime.Interval{iv}, al, 1); err == nil {
		t.Error("underflowing schedule passed")
	}
}

func TestRunRandomPipelines(t *testing.T) {
	// End-to-end property: every compiled random graph must execute cleanly
	// for several periods under both allocators. Uses flat SAS from a
	// deterministic topological sort.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 4 + rng.Intn(10)})
		q, err := g.Repetitions()
		if err != nil {
			t.Fatal(err)
		}
		order, err := g.TopologicalSort(q)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.FlatSAS(g, q, order)
		tr, err := schedtree.FromSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		ivs, err := tr.Lifetimes(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart} {
			al := alloc.Allocate(ivs, strat)
			if err := al.Verify(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := Run(s, ivs, al, 3); err != nil {
				t.Fatalf("trial %d (%v): %v", trial, strat, err)
			}
		}
	}
}

func TestTokenValueUnique(t *testing.T) {
	seen := map[int64]bool{}
	for e := sdf.EdgeID(0); e < 10; e++ {
		for n := int64(0); n < 100; n++ {
			v := tokenValue(e, n)
			if seen[v] {
				t.Fatalf("duplicate token value %d", v)
			}
			seen[v] = true
		}
	}
}

// TestRunRejectsPlacementOutsideImage: a placement past the end of the image
// is an error, not an index panic.
func TestRunRejectsPlacementOutsideImage(t *testing.T) {
	g := sdf.New("pair")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 2, 2, 0)
	s := sched.MustParse(g, "AB")
	iv := &lifetime.Interval{Name: "A->B", Size: 2, Start: 0, Dur: 2}
	for _, off := range []int64{-1, 1, 2} {
		al := &alloc.Allocation{Placements: []alloc.Placement{{Interval: iv, Offset: off}}, Total: 2}
		err := Run(s, []*lifetime.Interval{iv}, al, 1)
		if err == nil || !strings.Contains(err.Error(), "outside image") {
			t.Errorf("offset %d: got %v, want an outside-image error", off, err)
		}
	}
}

// chains builds n independent chains A_i -(1,2)-> B_i: every A fires twice
// per period, so a period has a mid-point on every worker.
func chains(n int) *sdf.Graph {
	g := sdf.New("chains")
	for i := 0; i < n; i++ {
		a := g.AddActor(fmt.Sprintf("A%d", i))
		b := g.AddActor(fmt.Sprintf("B%d", i))
		g.AddEdge(a, b, 1, 2, 0)
	}
	return g
}

// TestRunPhasedWorkerFailure shrinks the buffers read by every worker but
// worker 0 to one cell, so each of those workers reads a clobbered token in
// phase 1. The run rooted at worker 0 fires the others in index order, so
// it reports the lowest-indexed failing worker.
func TestRunPhasedWorkerFailure(t *testing.T) {
	g := chains(8)
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalSort(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		part, err := partition.Run(g, q, order, p)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := partition.Allocate(g, q, part)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunPhased(g, part, seg, 3); err != nil {
			t.Fatalf("P=%d: clean run: %v", p, err)
		}

		lowest, failing := p, map[int]bool{}
		for _, e := range g.Edges() {
			if w := part.Assign[e.Dst]; w > 0 {
				seg.Sizes[e.ID] = 1
				lowest, failing[w] = min(lowest, w), true
			}
		}
		if len(failing) != p-1 {
			t.Fatalf("P=%d: consumers on workers %v, want every worker but 0", p, failing)
		}
		err = RunPhased(g, part, seg, 3)
		want := fmt.Sprintf("period 0: phase 1 worker %d:", lowest)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "corrupted") {
			t.Errorf("P=%d: got %v, want a corruption in %q", p, err, want)
		}
	}
}
