package pass

import (
	"context"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/dynsched"
	"repro/internal/lifetime"
	"repro/internal/sched"
	"repro/internal/sdf"
	"repro/internal/sim"
)

// CompileGeneral compiles an arbitrary consistent SDF graph, including
// graphs whose precedence relation is cyclic. Acyclic graphs take the normal
// Compile path. Cyclic graphs are handled with the classic clustering
// decomposition of general SDF scheduling:
//
//  1. The strongly connected components of the precedence graph are
//     condensed into composite actors (rates aggregated over one local
//     period of each component), giving an acyclic graph.
//  2. The condensation is compiled with the full shared-memory flow; every
//     edge between components keeps its lifetime-based sharing.
//  3. Each nontrivial component is scheduled internally by the demand-driven
//     scheduler; its initial tokens must break the cycle or compilation
//     fails with the deadlock diagnosis.
//  4. The composite firings are expanded back into a complete executable
//     looped schedule, component-internal edges get dedicated (whole-period)
//     buffers sized by simulation, and the combined allocation is verified
//     token by token.
//
// The resulting Result is expressed over the original graph. Schedules for
// cyclic graphs are generally not single appearance (the paper's SAS theory
// applies to the acyclic condensation).
func CompileGeneral(g *sdf.Graph, opts Options) (*Result, error) {
	return CompileGeneralContext(context.Background(), g, opts)
}

// CompileGeneralContext is CompileGeneral with cooperative cancellation, on
// the same contract as CompileContext: ctx is checked at a checkpoint before
// each pass. The cyclic path has coarser passes: the SCC condensation stands
// in for the order pass (its sub-compilation checks ctx too, and its abort
// errors carry a "core: condensation:" prefix), per-component scheduling and
// expansion for the schedule pass, then lifetimes, allocation and the
// optional verification under the assemble kind. ctx is also checked between
// per-component demand-driven scheduling runs.
func CompileGeneralContext(ctx context.Context, g *sdf.Graph, opts Options) (*Result, error) {
	q, err := g.Repetitions()
	if err != nil {
		return nil, err
	}
	if g.IsAcyclic(q) {
		return CompileContext(ctx, g, opts)
	}
	if err := checkpoint(ctx, KindOrder); err != nil {
		return nil, err
	}
	if opts.Strategy == CustomOrder {
		return nil, fmt.Errorf("core: custom lexical orders are defined over actors, not over the SCC condensation; use APGAN or RPMC for cyclic graphs")
	}
	sccs := g.SCCs(q)

	// Component bookkeeping.
	compOf := make([]int, g.NumActors())
	for ci, comp := range sccs {
		for _, a := range comp {
			compOf[a] = ci
		}
	}
	// Local repetition factor: within one firing of composite X, actor a
	// fires q(a)/gcd_X times.
	gX := make([]int64, len(sccs))
	for ci, comp := range sccs {
		gX[ci] = q.GCD(comp)
	}
	qLocal := make([]int64, g.NumActors())
	for a := range qLocal {
		qLocal[a] = q[a] / gX[compOf[a]]
	}

	// Build the condensation: one composite actor per SCC, one condensed
	// edge per original inter-component edge (identity-preserving order).
	cond := sdf.New(g.Name + "_cond")
	compID := make([]sdf.ActorID, len(sccs))
	for ci, comp := range sccs {
		name := g.Actor(comp[0]).Name
		if len(comp) > 1 {
			name = fmt.Sprintf("scc%d", ci)
		}
		compID[ci] = cond.AddActor(name)
	}
	condEdgeOf := make([]sdf.EdgeID, g.NumEdges()) // -1 for intra edges
	for i := range condEdgeOf {
		condEdgeOf[i] = -1
	}
	for _, e := range g.Edges() {
		cs, cd := compOf[e.Src], compOf[e.Dst]
		if cs == cd {
			continue
		}
		ce := cond.AddEdge(compID[cs], compID[cd],
			e.Prod*qLocal[e.Src], e.Cons*qLocal[e.Dst], e.Delay)
		if e.Words > 1 {
			cond.SetWords(ce, e.Words)
		}
		condEdgeOf[e.ID] = ce
	}

	// Compile the acyclic condensation; verification happens below on the
	// expanded schedule instead. The sub-compilation shares ctx.
	sub := opts
	sub.Verify = false
	// Partitioned schedules are defined over the acyclic precedence levels of
	// the original actors, not over the SCC condensation; cyclic graphs always
	// compile sequentially.
	sub.Partitions = 0
	condRes, err := CompileContext(ctx, cond, sub)
	if err != nil {
		return nil, fmt.Errorf("core: condensation: %w", err)
	}

	// Internal schedules for nontrivial components.
	if err := checkpoint(ctx, KindSchedule); err != nil {
		return nil, err
	}
	bodies := make([][]*sched.Node, len(sccs))
	for ci, comp := range sccs {
		if len(comp) == 1 {
			bodies[ci] = []*sched.Node{sched.Leaf(1, comp[0])}
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: aborted scheduling component %d: %w", ci, err)
		}
		subG, back := g.Subgraph(comp)
		ql := make(sdf.Repetitions, subG.NumActors())
		for sa := 0; sa < subG.NumActors(); sa++ {
			ql[sa] = qLocal[back[sdf.ActorID(sa)]]
		}
		dyn, err := dynsched.Schedule(subG, ql)
		if err != nil {
			return nil, fmt.Errorf("core: component %d is deadlocked (insufficient delays): %w", ci, err)
		}
		local := dyn.AsSchedule(subG)
		for _, n := range local.Body {
			bodies[ci] = append(bodies[ci], remapSchedule(n, back))
		}
	}

	// Expand composite leaves into their internal bodies.
	condToComp := make(map[sdf.ActorID]int, len(sccs))
	for ci, id := range compID {
		condToComp[id] = ci
	}
	full := &sched.Schedule{Graph: g}
	for _, n := range condRes.Schedule.Body {
		full.Body = append(full.Body, expand(n, condToComp, bodies))
	}
	if err := full.Validate(q); err != nil {
		return nil, fmt.Errorf("core: expanded cyclic schedule invalid: %w", err)
	}
	simres, err := full.Simulate()
	if err != nil {
		return nil, err
	}

	// Intervals per original edge: inter-component edges inherit the
	// condensed lifetimes; intra-component edges become dedicated
	// whole-period buffers sized at their simulated peak.
	if err := checkpoint(ctx, KindLifetimes); err != nil {
		return nil, err
	}
	intervals := make([]*lifetime.Interval, g.NumEdges())
	totalDur := condRes.PeriodLen
	for _, e := range g.Edges() {
		if ce := condEdgeOf[e.ID]; ce >= 0 {
			iv := *condRes.Intervals[ce]
			iv.Name = g.Actor(e.Src).Name + "->" + g.Actor(e.Dst).Name
			intervals[e.ID] = &iv
			continue
		}
		size := simres.MaxTokens[e.ID] * e.Words
		if size < 1 {
			size = e.Words
		}
		intervals[e.ID] = &lifetime.Interval{
			Name: g.Actor(e.Src).Name + "->" + g.Actor(e.Dst).Name + " (cyclic)",
			Size: size, Start: 0, Dur: totalDur,
		}
	}

	if err := checkpoint(ctx, KindAlloc); err != nil {
		return nil, err
	}
	allocators := defaultAllocators(opts.Allocators)
	res := &Result{
		Graph:       g,
		Repetitions: q,
		Order:       nil,
		Schedule:    full,
		PeriodLen:   totalDur,
		Intervals:   intervals,
		Allocations: make(map[alloc.Strategy]*alloc.Allocation, len(allocators)),
	}
	for _, strat := range allocators {
		a := alloc.Allocate(intervals, strat)
		if err := a.Verify(); err != nil {
			return nil, fmt.Errorf("core: %v allocation infeasible: %w", strat, err)
		}
		res.Allocations[strat] = a
		if betterAlloc(Allocation{Strategy: strat, Alloc: a}, res.Best, res.BestBy) {
			res.Best = a
			res.BestBy = strat
		}
	}
	res.Metrics.DPCost = condRes.Metrics.DPCost
	res.Metrics.SharedTotal = res.Best.Total
	// Merging is unsupported on the cyclic path (the option is ignored), so
	// the merged total is the shared one, as on an acyclic compile without
	// merging.
	res.Metrics.MergedTotal = res.Metrics.SharedTotal
	res.Metrics.MCO, res.Metrics.MCP = lifetime.CliqueWeights(intervals)
	bmlb, err := g.BMLB()
	if err != nil {
		return nil, err
	}
	res.Metrics.BMLB = bmlb
	res.Metrics.AllocTotals = make(map[string]int64, len(allocators))
	for s, a := range res.Allocations {
		res.Metrics.AllocTotals[s.String()] = a.Total
	}
	var bm int64
	for _, m := range simres.MaxTokens {
		bm += m
	}
	res.Metrics.NonSharedBufMem = bm

	if opts.Verify {
		if err := checkpoint(ctx, KindAssemble); err != nil {
			return nil, err
		}
		periods := opts.VerifyPeriods
		if periods <= 0 {
			periods = 2
		}
		if err := sim.Run(full, intervals, res.Best, periods); err != nil {
			return nil, fmt.Errorf("core: cyclic verification failed: %w", err)
		}
	}
	return res, nil
}

// remapSchedule rewrites a schedule term from subgraph actor IDs to parent
// graph IDs.
func remapSchedule(n *sched.Node, back map[sdf.ActorID]sdf.ActorID) *sched.Node {
	if n.IsLeaf() {
		return sched.Leaf(n.Count, back[n.Actor])
	}
	body := make([]*sched.Node, len(n.Children))
	for i, ch := range n.Children {
		body[i] = remapSchedule(ch, back)
	}
	return sched.Loop(n.Count, body...)
}

// expand replaces composite leaves of the condensed schedule with their
// internal bodies.
func expand(n *sched.Node, condToComp map[sdf.ActorID]int, bodies [][]*sched.Node) *sched.Node {
	if n.IsLeaf() {
		ci := condToComp[n.Actor]
		body := bodies[ci]
		if len(body) == 1 && body[0].IsLeaf() && body[0].Count == 1 {
			return sched.Leaf(n.Count, body[0].Actor)
		}
		cloned := make([]*sched.Node, len(body))
		for i, b := range body {
			cloned[i] = b.Clone()
		}
		return sched.Loop(n.Count, cloned...)
	}
	body := make([]*sched.Node, len(n.Children))
	for i, ch := range n.Children {
		body[i] = expand(ch, condToComp, bodies)
	}
	return sched.Loop(n.Count, body...)
}
