package sim

import (
	"errors"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/apgan"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// satrecProgram builds satrec's P=2 program as a default compile does: the
// APGAN order, partitioned over two workers and packed into the segmented
// image.
func satrecProgram(t *testing.T) (*sdf.Graph, *partition.Program) {
	t.Helper()
	g := systems.SatelliteReceiver()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	ord, err := apgan.Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Run(g, q, ord.Order, 2)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := partition.Allocate(g, q, part)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := partition.Phased(g, part, seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(g, prog, 3); err != nil {
		t.Fatalf("clean program: %v", err)
	}
	return g, prog
}

// drainedPair builds a two-worker program whose only drain no link covers:
// A (worker w) writes two tokens on d for B (worker 1-w), B hands C
// (worker w) one token per firing on x, and C writes two tokens per firing
// on e for D (worker 1-w), e reusing d's cells. C's first firing needs only
// B's first, so without the drain it may overwrite d's second token before
// B reads it. Only the run rooted at worker w fires C that early.
func drainedPair(w int) (*sdf.Graph, *partition.Program) {
	g := sdf.New("drained")
	a, b, c, d := g.AddActor("A"), g.AddActor("B"), g.AddActor("C"), g.AddActor("D")
	g.AddEdge(a, b, 2, 1, 0)
	g.AddEdge(b, c, 1, 1, 0)
	g.AddEdge(c, d, 2, 4, 0)
	phase := func(actor sdf.ActorID, count int64, on int) [][]*sched.Node {
		ph := make([][]*sched.Node, 2)
		ph[on] = []*sched.Node{{Actor: actor, Count: count}}
		return ph
	}
	return g, &partition.Program{
		P:      2,
		Phases: [][][]*sched.Node{phase(a, 1, w), phase(b, 2, 1-w), phase(c, 2, w), phase(d, 1, 1-w)},
		Links: []partition.Link{
			{Edge: 0, Src: w, Dst: 1 - w, SrcPhase: 0, DstPhase: 1, Tokens: 2},
			{Edge: 1, Src: 1 - w, Dst: w, SrcPhase: 1, DstPhase: 2, Tokens: 2},
			{Edge: 2, Src: w, Dst: 1 - w, SrcPhase: 2, DstPhase: 3, Tokens: 4},
		},
		Drains: [][]sdf.EdgeID{nil, nil, {0}},
		Layout: partition.Layout{
			Names:   []string{"A->B", "B->C", "C->D"},
			Offsets: []int64{0, 4, 0},
			Sizes:   []int64{2, 2, 4},
			Total:   6,
		},
	}
}

// turnDrainAround makes the earlier edge of prog's first drain drain the
// later one as well, as check's drain-backward corruption does.
func turnDrainAround(t *testing.T, prog *partition.Program) {
	t.Helper()
	for e, ds := range prog.Drains {
		if len(ds) > 0 {
			prog.Drains[ds[0]] = append(prog.Drains[ds[0]], sdf.EdgeID(e))
			return
		}
	}
	t.Fatal("the program has no drain")
}

// runGuarded runs prog for three periods and crashes the test binary if the
// run has not returned within 10 s.
func runGuarded(t *testing.T, g *sdf.Graph, prog *partition.Program) error {
	t.Helper()
	guard := time.AfterFunc(10*time.Second, func() { panic("sim: the run hangs past 10 s") })
	defer guard.Stop()
	return run(g, prog, 3)
}

// TestRunCatchesCorruptedPrograms: the simulator fails on each of the
// corruptions check.Drains names statically. A removed drain lets a
// producer overwrite cells another worker still reads, whichever worker it
// runs on, a drain turned around closes a cycle of waits, and a link that
// claims one token more than crosses it leaves a drain wait unmet.
func TestRunCatchesCorruptedPrograms(t *testing.T) {
	t.Run("removed", func(t *testing.T) {
		for w := 0; w < 2; w++ {
			g, prog := drainedPair(w)
			if err := run(g, prog, 3); err != nil {
				t.Fatalf("producer on worker %d: clean program: %v", w, err)
			}
			prog.Drains[2] = nil
			err := runGuarded(t, g, prog)
			if err == nil || !strings.Contains(err.Error(), "edge 0 token 1 corrupted") {
				t.Fatalf("producer on worker %d: got %v, want edge 0's second token corrupted", w, err)
			}
		}
	})
	t.Run("forward", func(t *testing.T) {
		g, prog := satrecProgram(t)
		turnDrainAround(t, prog)
		var dl *DeadlockError
		if err := runGuarded(t, g, prog); !errors.As(err, &dl) || dl.Waiter == dl.Owner {
			t.Fatalf("got %v, want a deadlock between the two workers", err)
		}
	})
	t.Run("link", func(t *testing.T) {
		g, prog := satrecProgram(t)
		prog.Links[0].Tokens++
		if err := runGuarded(t, g, prog); err == nil {
			t.Fatal("a link claiming one token too many passed")
		}
	})
}

// TestRunLinkLimits: B (worker 1, phase 0) consumes what A (worker 0,
// phase 1) wrote in the period before. With two delay tokens in a buffer of
// two cells A must wait for B's reads, in every root's run; in one cell it
// finds no room even then; and with no delay B may not count on A's writes
// of the same period, even in the run that makes them first.
func TestRunLinkLimits(t *testing.T) {
	for _, c := range []struct {
		cells, delay int64
		want         string
	}{
		{2, 2, ""},
		{1, 2, "edge 0 overflow: count 0 + 2 > capacity 1"},
		{2, 0, "edge 0 underflow: have 0, need 2"},
	} {
		g := sdf.New("room")
		a, b := g.AddActor("A"), g.AddActor("B")
		g.AddEdge(a, b, 2, 2, c.delay)
		prog := &partition.Program{
			P: 2,
			Phases: [][][]*sched.Node{
				{nil, {{Actor: b, Count: 1}}}, {{{Actor: a, Count: 1}}, nil},
			},
			Links:  []partition.Link{{Edge: 0, Src: 0, Dst: 1, SrcPhase: 1, DstPhase: 0, Tokens: 2}},
			Drains: [][]sdf.EdgeID{nil},
			Layout: partition.Layout{Names: []string{"A->B"}, Offsets: []int64{0}, Sizes: []int64{c.cells}, Total: c.cells},
		}
		err := runGuarded(t, g, prog)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%d cells, delay %d: got %v, want %q", c.cells, c.delay, err, c.want)
		}
	}
}

// TestRunErrorsDeterministic: a corrupted program fails with the same text
// on every run and whatever the number of Ps, since the simulation never
// leaves the caller's goroutine.
func TestRunErrorsDeterministic(t *testing.T) {
	corrupt := []func() (*sdf.Graph, *partition.Program){
		func() (*sdf.Graph, *partition.Program) {
			g, prog := drainedPair(1)
			prog.Drains[2] = nil
			return g, prog
		},
		func() (*sdf.Graph, *partition.Program) {
			g, prog := satrecProgram(t)
			turnDrainAround(t, prog)
			return g, prog
		},
	}
	for i, build := range corrupt {
		g, prog := build()
		first := run(g, prog, 3)
		if first == nil {
			t.Fatalf("program %d: corruption passed", i)
		}
		for n := 0; n < 20; n++ {
			if err := run(g, prog, 3); err == nil || err.Error() != first.Error() {
				t.Fatalf("program %d run %d: got %v, want %v", i, n, err, first)
			}
		}
		prev := goruntime.GOMAXPROCS(1)
		err := run(g, prog, 3)
		goruntime.GOMAXPROCS(prev)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("program %d at GOMAXPROCS 1: got %v, want %v", i, err, first)
		}
	}
}
