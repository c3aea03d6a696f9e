package check

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/alloc"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/schedtree"
	"repro/internal/sdf"
	"repro/internal/sim"
)

// Memory runs the token-level shared-memory simulator for several periods:
// every produced token must be consumed intact (no buffer clobbers another
// live buffer's cells) and every edge must return to its initial state at
// each period boundary. Scheduling, lifetime extraction and allocation must
// all be right for this to pass.
func Memory(res *core.Result, opt Options) error {
	if err := sim.Run(res.Schedule, res.Intervals, res.Best, opt.simPeriods()); err != nil {
		return violationf(StageMemory, "token-level", "%v", err)
	}
	return nil
}

// Codegen cross-checks the generated C against the compilation result it was
// rendered from: generation is deterministic, the shared array is sized to
// the best allocation, and every edge's offset/size/footprint macros match
// the allocator's placements.
func Codegen(res *core.Result) error {
	src := codegen.GenerateC(res)
	if again := codegen.GenerateC(res); again != src {
		return violationf(StageCodegen, "deterministic", "two generations of %q differ", res.Graph.Name)
	}
	memSize := res.Best.Total
	if memSize < 1 {
		memSize = 1
	}
	if want := fmt.Sprintf("#define MEM_SIZE %dL\n", memSize); !strings.Contains(src, want) {
		return violationf(StageCodegen, "mem-size", "generated C lacks %q", strings.TrimSpace(want))
	}
	if want := fmt.Sprintf(" * Schedule: %s\n", res.Schedule); !strings.Contains(src, want) {
		return violationf(StageCodegen, "schedule", "generated C header does not quote schedule %s", res.Schedule)
	}
	for _, e := range res.Graph.Edges() {
		iv := res.Intervals[e.ID]
		off, ok := res.Best.OffsetOf(iv)
		if !ok {
			return violationf(StageCodegen, "offset", "edge %d interval %s has no placement", e.ID, iv.Name)
		}
		for _, want := range []string{
			fmt.Sprintf("#define E%d_OFF %dL", e.ID, off),
			fmt.Sprintf("#define E%d_SIZE %dL", e.ID, iv.Size),
			fmt.Sprintf("#define E%d_W %dL", e.ID, e.Words),
		} {
			if !strings.Contains(src, want) {
				return violationf(StageCodegen, "offset", "generated C lacks %q for edge %s", want, iv.Name)
			}
		}
	}
	return nil
}

// firingRec is one firing of the execution trace: the actor plus its
// flattened consumed and produced token values.
type firingRec struct {
	actor   sdf.ActorID
	in, out []float64
}

// synthFire is the deterministic synthetic actor behaviour both execution
// paths share: every output token folds the consumed values together with
// the actor identity, firing index and token position, so any token that is
// lost, duplicated or clobbered in shared memory changes the trace.
func synthFire(g *sdf.Graph, a sdf.ActorID, firing int64, inputs [][]float64) [][]float64 {
	var sum float64
	for _, vals := range inputs {
		for _, v := range vals {
			sum += v
		}
	}
	// Keep values exactly representable: fold the running sum into [0, 2^20)
	// so chains of high-rate actors cannot drift past float64's integer range.
	sum = math.Mod(sum, 1<<20)
	outs := g.Out(a)
	outputs := make([][]float64, len(outs))
	for i, eid := range outs {
		vals := make([]float64, g.Edge(eid).Prod)
		for k := range vals {
			vals[k] = sum + float64(a+1)*17 + float64(firing)*3 + float64(i)*5 + float64(k)*0.5
		}
		outputs[i] = vals
	}
	return outputs
}

// Runtime differentially tests the float64 shared-memory engine against a
// direct actor-level reference interpreter (plain per-edge FIFOs, no shared
// memory, no modulo addressing). Both execute one period of the generated
// schedule with the same synthetic actor behaviour; the firing-by-firing
// traces and the end-of-period queue contents must match exactly. Systems
// with vector (multi-word) tokens are outside the scalar engine's domain and
// are skipped.
func Runtime(res *core.Result) error {
	g := res.Graph
	for _, e := range g.Edges() {
		if e.Words > 1 {
			return nil
		}
	}
	var engineTrace []firingRec
	fires := make(map[sdf.ActorID]runtime.Fire, g.NumActors())
	engineFirings := make([]int64, g.NumActors())
	for _, actor := range g.Actors() {
		id := actor.ID
		fires[id] = func(inputs [][]float64) [][]float64 {
			outputs := synthFire(g, id, engineFirings[id], inputs)
			engineFirings[id]++
			engineTrace = append(engineTrace, firingRec{actor: id, in: flatten(inputs), out: flatten(outputs)})
			return outputs
		}
	}
	eng, err := runtime.New(res, fires)
	if err != nil {
		return violationf(StageRuntime, "engine", "%v", err)
	}
	if err := eng.RunPeriod(); err != nil {
		return violationf(StageRuntime, "engine", "%v", err)
	}

	// Reference interpreter: slice FIFOs seeded with the same zero-valued
	// initial tokens the engine starts from.
	fifos := make([][]float64, g.NumEdges())
	for _, e := range g.Edges() {
		fifos[e.ID] = make([]float64, e.Delay)
	}
	refFirings := make([]int64, g.NumActors())
	var refTrace []firingRec
	var failure error
	res.Schedule.ForEachFiring(func(a sdf.ActorID) bool {
		inputs := make([][]float64, len(g.In(a)))
		for i, eid := range g.In(a) {
			cons := g.Edge(eid).Cons
			if int64(len(fifos[eid])) < cons {
				failure = violationf(StageRuntime, "reference",
					"firing %s underflows edge %d in the reference interpreter", g.Actor(a).Name, eid)
				return false
			}
			inputs[i] = fifos[eid][:cons:cons]
			fifos[eid] = fifos[eid][cons:]
		}
		outputs := synthFire(g, a, refFirings[a], inputs)
		refFirings[a]++
		for i, eid := range g.Out(a) {
			fifos[eid] = append(fifos[eid], outputs[i]...)
		}
		refTrace = append(refTrace, firingRec{actor: a, in: flatten(inputs), out: flatten(outputs)})
		return true
	})
	if failure != nil {
		return failure
	}

	if len(engineTrace) != len(refTrace) {
		return violationf(StageRuntime, "trace", "engine executed %d firings, reference %d",
			len(engineTrace), len(refTrace))
	}
	for i := range engineTrace {
		er, rr := engineTrace[i], refTrace[i]
		if er.actor != rr.actor {
			return violationf(StageRuntime, "trace", "firing %d: engine fired %s, reference %s",
				i, g.Actor(er.actor).Name, g.Actor(rr.actor).Name)
		}
		if !equalFloats(er.in, rr.in) {
			return violationf(StageRuntime, "trace",
				"firing %d (%s): engine consumed %v from shared memory, reference %v",
				i, g.Actor(er.actor).Name, er.in, rr.in)
		}
		if !equalFloats(er.out, rr.out) {
			return violationf(StageRuntime, "trace", "firing %d (%s): engine produced %v, reference %v",
				i, g.Actor(er.actor).Name, er.out, rr.out)
		}
	}
	for _, e := range g.Edges() {
		if got, want := eng.TokensOn(e.ID), fifos[e.ID]; !equalFloats(got, want) {
			return violationf(StageRuntime, "final-state",
				"edge %s->%s ends the period with tokens %v in shared memory, reference %v",
				g.Actor(e.Src).Name, g.Actor(e.Dst).Name, got, want)
		}
	}
	return nil
}

func flatten(vals [][]float64) []float64 {
	var out []float64
	for _, v := range vals {
		out = append(out, v...)
	}
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Pipeline runs every stage oracle over a complete compilation result in
// pipeline order and returns the first stage-attributed violation, or nil
// when the whole (graph, schedule, lifetimes, allocation, code) tuple is
// consistent.
func Pipeline(res *core.Result, opt Options) error {
	if res == nil {
		return violationf(StageGraph, "nil", "no compilation result")
	}
	g := res.Graph
	if err := Graph(g); err != nil {
		return err
	}
	if err := Repetitions(g, res.Repetitions); err != nil {
		return err
	}
	if err := Order(g, res.Repetitions, res.Order); err != nil {
		return err
	}
	if res.Schedule == nil || !res.Schedule.IsSingleAppearance() {
		return violationf(StageSchedule, "single-appearance",
			"pipeline schedule %v is not a single appearance schedule", res.Schedule)
	}
	if err := Schedule(g, res.Repetitions, res.Schedule, opt); err != nil {
		return err
	}
	// The oracle rebuilds the schedule tree from the schedule itself rather
	// than trusting anything the pipeline derived from it.
	tree, err := schedtree.FromSchedule(res.Schedule)
	if err != nil {
		return violationf(StageLifetimes, "tree", "%v", err)
	}
	if res.PeriodLen != tree.TotalDur {
		return violationf(StageLifetimes, "period",
			"result period %d, schedule tree period %d", res.PeriodLen, tree.TotalDur)
	}
	if err := Lifetimes(tree, res.Intervals, opt); err != nil {
		return err
	}
	if res.Best == nil {
		return violationf(StageAllocation, "missing", "no best allocation selected")
	}
	strategies := make([]alloc.Strategy, 0, len(res.Allocations))
	for strat := range res.Allocations {
		strategies = append(strategies, strat)
	}
	sort.Slice(strategies, func(i, j int) bool { return strategies[i] < strategies[j] })
	bestSeen := false
	for _, strat := range strategies {
		a := res.Allocations[strat]
		if err := Allocation(res.Intervals, a); err != nil {
			v := err.(*Violation)
			v.Msg = fmt.Sprintf("%s: %s", strat, v.Msg)
			return v
		}
		if a == res.Best {
			bestSeen = true
		}
		if a.Total < res.Best.Total {
			return violationf(StageAllocation, "best",
				"%s packs into %d cells but Best holds %d", strat, a.Total, res.Best.Total)
		}
	}
	if !bestSeen {
		if err := Allocation(res.Intervals, res.Best); err != nil {
			return err
		}
	}
	if res.Metrics.SharedTotal != res.Best.Total {
		return violationf(StageAllocation, "metrics",
			"Metrics.SharedTotal %d != best allocation total %d", res.Metrics.SharedTotal, res.Best.Total)
	}
	if res.Metrics.MergedTotal > res.Metrics.SharedTotal {
		return violationf(StageAllocation, "metrics",
			"merging grew the allocation: merged %d > shared %d", res.Metrics.MergedTotal, res.Metrics.SharedTotal)
	}
	want, err := g.BMLB()
	if err != nil {
		return fmt.Errorf("check: recomputing BMLB: %w", err)
	}
	if res.Metrics.BMLB != want {
		return violationf(StageSchedule, "metrics", "Metrics.BMLB %d != recomputed %d", res.Metrics.BMLB, want)
	}
	if bm, err := res.Schedule.BufMem(); err == nil && res.Metrics.NonSharedBufMem != bm {
		return violationf(StageSchedule, "metrics",
			"Metrics.NonSharedBufMem %d != recomputed bufmem %d", res.Metrics.NonSharedBufMem, bm)
	}
	if err := Memory(res, opt); err != nil {
		return err
	}
	if err := Codegen(res); err != nil {
		return err
	}
	if err := Runtime(res); err != nil {
		return err
	}
	if res.Partition != nil {
		return partitionPipeline(res, opt)
	}
	return nil
}
