package check

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// compilePartitioned compiles the quickstart converter with a 2-way phased
// schedule for the corruption tests.
func compilePartitioned(t *testing.T) *core.Result {
	t.Helper()
	return compileQuickstart(t, core.Options{Partitions: 2})
}

// delayedPairGraph builds the smallest graph with both edge species the
// partition oracles distinguish: e0 is a plain precedence edge A->B, e1 is a
// parallel A->B edge carrying enough delay that B's whole period runs on old
// tokens (a non-precedence edge, live across the period boundary), and e2
// drains B into C through one unit of delay so corrupted values stay
// observable in the end-of-period queue state.
func delayedPairGraph() *sdf.Graph {
	g := sdf.New("delayedpair")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 2, 1, 0) // e0: precedence
	g.AddEdge(a, b, 2, 1, 2) // e1: fully delayed, non-precedence
	g.AddEdge(b, c, 1, 1, 1) // e2: carries B's outputs across the boundary
	return g
}

func TestPipelineCleanPartitioned(t *testing.T) {
	for _, g := range systems.Table1Systems() {
		for _, p := range []int{2, 4} {
			res, err := core.Compile(g, core.Options{Partitions: p})
			if err != nil {
				t.Fatalf("%s/p%d: compile: %v", g.Name, p, err)
			}
			if err := Pipeline(res, Options{}); err != nil {
				t.Errorf("%s/p%d: oracle violation: %v", g.Name, p, err)
			}
		}
	}
}

func TestPartitionedConfigsInGrid(t *testing.T) {
	var partitioned int
	for _, cfg := range PipelineConfigs() {
		if cfg.Partitions < 2 {
			continue
		}
		partitioned++
		if got, want := cfg.String(), "+p"; !containsSubstring(got, want) {
			t.Errorf("config %q does not name its worker count", got)
		}
		if err := cfg.Run(systems.CDDAT(), Options{}); err != nil {
			t.Errorf("config %v: %v", cfg, err)
		}
	}
	if partitioned < 9 {
		t.Errorf("grid has %d partitioned configurations, want at least 9", partitioned)
	}
}

func containsSubstring(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// movePartitionBlock consistently relocates one actor's firing block to
// (phase, worker), giving the phase a list for that worker if it was idle:
// block lists and both maps stay in agreement, so only the edge-level rules
// can object to the result.
func movePartitionBlock(p *partition.Partitioned, a sdf.ActorID, phase, worker int) {
	for len(p.Phases[phase].Workers) <= worker {
		p.Phases[phase].Workers = append(p.Phases[phase].Workers, nil)
	}
	oldPh, oldW := p.PhaseOf[a], p.Assign[a]
	list := p.Phases[oldPh].Workers[oldW]
	for i, blk := range list {
		if blk.Actor != a {
			continue
		}
		p.Phases[oldPh].Workers[oldW] = append(list[:i:i], list[i+1:]...)
		p.Phases[phase].Workers[worker] = append(p.Phases[phase].Workers[worker], blk)
		break
	}
	p.PhaseOf[a] = phase
	p.Assign[a] = worker
}

// TestCorruptedPartitionDuplicateCaught: duplicating an actor's firing block
// on another worker must trip assigned-once.
func TestCorruptedPartitionDuplicateCaught(t *testing.T) {
	res := compilePartitioned(t)
	p := res.Partition
	blk := p.Phases[p.PhaseOf[0]].Workers[p.Assign[0]][0]
	other := (p.Assign[blk.Actor] + 1) % p.P
	p.Phases[p.PhaseOf[0]].Workers[other] = append(p.Phases[p.PhaseOf[0]].Workers[other], blk)
	err := Pipeline(res, Options{})
	if stage, _ := StageOf(err); stage != StagePartition {
		t.Fatalf("got %v, want a %s violation", err, StagePartition)
	}
	if !violatesRule(err, "assigned-once") {
		t.Errorf("error %v does not name the assigned-once rule", err)
	}
}

// TestCorruptedPartitionPhaseCaught: consistently moving a consumer into its
// producer's phase (block and maps together, so assigned-once still holds)
// must trip phase-precedence.
func TestCorruptedPartitionPhaseCaught(t *testing.T) {
	res := compilePartitioned(t)
	g := res.Graph
	p := res.Partition
	var e sdf.Edge
	found := false
	for _, cand := range g.Edges() {
		if sdf.PrecedenceEdge(g, res.Repetitions, cand.ID) {
			e, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no precedence edge in the quickstart graph")
	}
	movePartitionBlock(p, e.Dst, p.PhaseOf[e.Src], p.Assign[e.Dst])
	err := Pipeline(res, Options{})
	if stage, _ := StageOf(err); stage != StagePartition {
		t.Fatalf("got %v, want a %s violation", err, StagePartition)
	}
	if !violatesRule(err, "phase-precedence") {
		t.Errorf("error %v does not name the phase-precedence rule", err)
	}
}

// TestCorruptedPartitionBarrierReadCaught: a fully delayed edge is not a
// precedence edge, so its endpoints legally share a phase — but pushing the
// consumer onto another worker while keeping the phase puts unsynchronized
// FIFO traffic inside one phase, which barrier-read must reject.
func TestCorruptedPartitionBarrierReadCaught(t *testing.T) {
	g := sdf.New("delayring")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 1, 1, 1) // fully delayed: A and B share phase 0
	res, err := core.Compile(g, core.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Pipeline(res, Options{}); err != nil {
		t.Fatalf("clean compile rejected: %v", err)
	}
	p := res.Partition
	if p.PhaseOf[a] != p.PhaseOf[b] || p.Assign[a] != p.Assign[b] {
		t.Fatalf("expected A and B co-located, got phases (%d,%d) workers (%d,%d)",
			p.PhaseOf[a], p.PhaseOf[b], p.Assign[a], p.Assign[b])
	}
	movePartitionBlock(p, b, p.PhaseOf[b], (p.Assign[b]+1)%p.P)
	verr := Partition(g, res.Repetitions, p)
	if stage, _ := StageOf(verr); stage != StagePartition {
		t.Fatalf("got %v, want a %s violation", verr, StagePartition)
	}
	if !violatesRule(verr, "barrier-read") {
		t.Errorf("error %v does not name the barrier-read rule", verr)
	}
}

func TestCorruptedSegmentsCaught(t *testing.T) {
	t.Run("layout", func(t *testing.T) {
		res := compilePartitioned(t)
		res.Segmented.Segments[0].Cells++
		assertSegViolation(t, res, "layout")
	})
	t.Run("routing", func(t *testing.T) {
		res := compilePartitioned(t)
		e := res.Graph.Edges()[0]
		res.Segmented.EdgeSeg[e.ID] = (res.Segmented.EdgeSeg[e.ID] + 1) % (res.Partition.P + 1)
		assertSegViolation(t, res, "routing")
	})
	t.Run("size", func(t *testing.T) {
		res := compilePartitioned(t)
		var corrupted bool
		for _, e := range res.Graph.Edges() {
			if res.Segmented.Sizes[e.ID] > 1 {
				res.Segmented.Sizes[e.ID] = 1
				corrupted = true
				break
			}
		}
		if !corrupted {
			t.Fatal("no multi-cell buffer to shrink")
		}
		assertSegViolation(t, res, "size")
	})
	t.Run("metrics", func(t *testing.T) {
		res := compilePartitioned(t)
		res.Metrics.ParallelTotal++
		assertSegViolation(t, res, "metrics")
	})
	t.Run("disjoint", func(t *testing.T) {
		res := overlapDelayedBuffers(t)
		assertSegViolation(t, res, "disjoint")
	})
}

func assertSegViolation(t *testing.T, res *core.Result, rule string) {
	t.Helper()
	err := Pipeline(res, Options{})
	if stage, _ := StageOf(err); stage != StageSegments {
		t.Fatalf("got %v, want a %s violation", err, StageSegments)
	}
	if !violatesRule(err, rule) {
		t.Errorf("error %v does not name the %s rule", err, rule)
	}
}

// overlapDelayedBuffers compiles delayedPairGraph at P=2 and slides e0's
// buffer onto e1's: e1 is the larger, fully delayed buffer in the same
// segment (both edges join the same actor pair), so the corrupted placement
// stays inside segment bounds while A's phase-0 writes land exactly on the
// cells holding e1's seeded delay tokens.
func overlapDelayedBuffers(t *testing.T) *core.Result {
	t.Helper()
	res, err := core.Compile(delayedPairGraph(), core.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	seg := res.Segmented
	if seg.EdgeSeg[0] != seg.EdgeSeg[1] {
		t.Fatalf("parallel edges routed to different segments (%d, %d)", seg.EdgeSeg[0], seg.EdgeSeg[1])
	}
	if seg.Sizes[0] > seg.Sizes[1] {
		t.Fatalf("expected e1 (size %d) to dominate e0 (size %d)", seg.Sizes[1], seg.Sizes[0])
	}
	seg.Offsets[0] = seg.Offsets[1]
	return res
}

// TestPhasedMemoryCatchesClobberDirectly: the phased token-level simulator
// must catch the overlapping placement on its own (A's writes corrupt e1's
// seeded tokens before B reads them), independent of the static rules.
func TestPhasedMemoryCatchesClobberDirectly(t *testing.T) {
	res := overlapDelayedBuffers(t)
	err := PhasedMemory(res, Options{})
	if stage, _ := StageOf(err); stage != StageSegments {
		t.Fatalf("phased simulator missed the clobber: %v", err)
	}
	if !violatesRule(err, "token-level") {
		t.Errorf("error %v does not name the token-level rule", err)
	}
}

// TestPhasedRuntimeCatchesClobberDirectly: the float64 engine comparison
// must also see the overlap — B folds the clobbered values into what it
// sends down the delayed B->C edge, so the end-of-period queue state
// diverges from the sequential engine's.
func TestPhasedRuntimeCatchesClobberDirectly(t *testing.T) {
	res := overlapDelayedBuffers(t)
	err := PhasedRuntime(res, Options{})
	if stage, _ := StageOf(err); stage != StageRuntime {
		t.Fatalf("phased engine comparison missed the clobber: %v", err)
	}
}

// TestThreadedCodegenRejectsUnpartitioned: the threaded codegen oracle has
// nothing to render for a sequential result and must say so.
func TestThreadedCodegenRejectsUnpartitioned(t *testing.T) {
	res := compileQuickstart(t, core.Options{})
	err := ThreadedCodegen(res)
	if stage, _ := StageOf(err); stage != StageCodegen {
		t.Fatalf("got %v, want a %s violation", err, StageCodegen)
	}
}

func violatesRule(err error, rule string) bool {
	var v *Violation
	if !errors.As(err, &v) {
		return false
	}
	return v.Rule == rule
}

// satrecProgram compiles satrec at P=2 and builds its phased program.
func satrecProgram(t *testing.T) (*core.Result, *partition.Program) {
	t.Helper()
	res, err := core.Compile(systems.SatelliteReceiver(), core.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := partition.Phased(res.Graph, res.Partition, res.Segmented)
	if err != nil {
		t.Fatal(err)
	}
	if err := Drains(res.Graph, res.Repetitions, res.Partition, res.Segmented, prog); err != nil {
		t.Fatalf("clean program: %v", err)
	}
	return res, prog
}

// TestDrainsCorruptionCaught: satrec's P=2 program with one drain removed
// lets a producer overwrite shared cells another worker may still read,
// and a drain turned around points forward in phase order; the drain
// oracle names each.
func TestDrainsCorruptionCaught(t *testing.T) {
	check := func(t *testing.T, res *core.Result, prog *partition.Program, rule string) {
		t.Helper()
		err := Drains(res.Graph, res.Repetitions, res.Partition, res.Segmented, prog)
		if stage, _ := StageOf(err); stage != StageSegments || !violatesRule(err, rule) {
			t.Fatalf("got %v, want a %s/%s violation", err, StageSegments, rule)
		}
	}
	t.Run("removed", func(t *testing.T) {
		res, prog := satrecProgram(t)
		for e, ds := range prog.Drains {
			if len(ds) > 0 {
				prog.Drains[e] = ds[1:]
				check(t, res, prog, "drain-order")
				return
			}
		}
		t.Fatal("satrec's P=2 program has no drain")
	})
	t.Run("forward", func(t *testing.T) {
		res, prog := satrecProgram(t)
		for e, ds := range prog.Drains {
			if len(ds) > 0 {
				prog.Drains[ds[0]] = append(prog.Drains[ds[0]], sdf.EdgeID(e))
				check(t, res, prog, "drain-backward")
				return
			}
		}
		t.Fatal("satrec's P=2 program has no drain")
	})
	t.Run("link", func(t *testing.T) {
		res, prog := satrecProgram(t)
		prog.Links[0].Tokens++
		check(t, res, prog, "link")
	})
}
