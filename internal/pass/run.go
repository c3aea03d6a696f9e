package pass

import (
	"context"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/apgan"
	"repro/internal/lifetime"
	"repro/internal/looping"
	"repro/internal/merge"
	"repro/internal/partition"
	"repro/internal/rpmc"
	"repro/internal/sched"
	"repro/internal/schedtree"
	"repro/internal/sdf"
	"repro/internal/sim"
)

// Error messages keep the historical "core:" prefix: these passes are the
// body of the public core.Compile API, and downstream consumers (the fuzzer's
// crash buckets, service error envelopes, tests) key on that spelling.

// RunRepetitions computes the repetitions vector artifact.
func RunRepetitions(g *sdf.Graph) (Repetitions, error) {
	q, err := g.Repetitions()
	if err != nil {
		return Repetitions{}, err
	}
	return Repetitions{Q: q}, nil
}

// RunOrder generates the lexical ordering artifact under the given strategy
// (custom is the caller-supplied actor list).
func RunOrder(g *sdf.Graph, rep Repetitions, strategy OrderStrategy, custom []sdf.ActorID) (Order, error) {
	switch strategy {
	case APGAN:
		res, err := apgan.Run(g, rep.Q)
		if err != nil {
			return Order{}, err
		}
		return Order{Actors: res.Order}, nil
	case RPMC:
		order, err := rpmc.Order(g, rep.Q)
		if err != nil {
			return Order{}, err
		}
		return Order{Actors: order}, nil
	case CustomOrder:
		if len(custom) != g.NumActors() {
			return Order{}, fmt.Errorf("core: custom order has %d actors, graph has %d",
				len(custom), g.NumActors())
		}
		return Order{Actors: custom}, nil
	default:
		return Order{}, fmt.Errorf("core: unknown order strategy %v", strategy)
	}
}

// RunSchedule builds and validates the looped single appearance schedule
// artifact for one loop-hierarchy algorithm.
func RunSchedule(g *sdf.Graph, rep Repetitions, ord Order, la LoopAlg) (LoopedSchedule, error) {
	s, cost, err := makeLoops(g, rep.Q, ord.Actors, la)
	if err != nil {
		return LoopedSchedule{}, err
	}
	if err := s.Validate(rep.Q); err != nil {
		return LoopedSchedule{}, fmt.Errorf("core: generated schedule %s is invalid: %w", s, err)
	}
	return LoopedSchedule{Schedule: s, DPCost: cost}, nil
}

func makeLoops(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID, la LoopAlg) (*sched.Schedule, int64, error) {
	switch la {
	case SDPPOLoops:
		r, err := looping.SDPPO(g, q, order)
		if err != nil {
			return nil, 0, err
		}
		return r.Schedule, r.Cost, nil
	case DPPOLoops:
		r, err := looping.DPPO(g, q, order)
		if err != nil {
			return nil, 0, err
		}
		return r.Schedule, r.Cost, nil
	case ChainPreciseLoops:
		if g.IsChain(order) {
			r, err := looping.ChainSDPPO(g, q, order)
			if err != nil {
				return nil, 0, err
			}
			return r.Schedule, r.Cost, nil
		}
		r, err := looping.SDPPO(g, q, order)
		if err != nil {
			return nil, 0, err
		}
		return r.Schedule, r.Cost, nil
	case FlatLoops:
		s := sched.FlatSAS(g, q, order)
		bm, err := s.BufMem()
		if err != nil {
			return nil, 0, err
		}
		return s, bm, nil
	default:
		return nil, 0, fmt.Errorf("core: unknown looping algorithm %v", la)
	}
}

// RunLifetimes extracts the per-edge buffer lifetime intervals over the
// schedule tree, and computes the metrics that depend on nothing but the
// schedule and the edge words: the period length, the non-shared bufmem
// and the clique-weight estimates.
func RunLifetimes(rep Repetitions, ls LoopedSchedule) (Lifetimes, error) {
	tree, err := schedtree.FromSchedule(ls.Schedule)
	if err != nil {
		return Lifetimes{}, err
	}
	intervals, err := tree.Lifetimes(rep.Q)
	if err != nil {
		return Lifetimes{}, err
	}
	bm, err := ls.Schedule.BufMem()
	if err != nil {
		return Lifetimes{}, err
	}
	mco, mcp := lifetime.CliqueWeights(intervals)
	return Lifetimes{Intervals: intervals, PeriodLen: tree.TotalDur,
		BufMem: bm, MCO: mco, MCP: mcp, wig: &wigOnce{}}, nil
}

// RunAlloc packs one allocator's shared memory image over the extracted
// lifetimes. The artifact is read, never written — the interval slice and the
// cached intersection graph — so many allocator nodes may share one
// Lifetimes artifact concurrently.
func RunAlloc(lf Lifetimes, strat alloc.Strategy) (Allocation, error) {
	a := alloc.AllocateWIG(lf.intersectionGraph(), strat)
	if err := a.Verify(); err != nil {
		return Allocation{}, fmt.Errorf("core: %v allocation infeasible: %w", strat, err)
	}
	return Allocation{Strategy: strat, Alloc: a}, nil
}

// RunPartition builds the P-way phased schedule artifact over the
// precedence levels of the ordered graph. partitions must be >= 2: the
// sequential path never materializes a partition artifact (P=1 is the
// sequential schedule by definition), which is what keeps Partitions <= 1
// compilations byte-identical to the pre-partitioning pipeline.
func RunPartition(g *sdf.Graph, rep Repetitions, ord Order, partitions int) (Partition, error) {
	if partitions < 2 {
		return Partition{}, fmt.Errorf("core: partition pass needs Partitions >= 2, got %d", partitions)
	}
	p, err := partition.Run(g, rep.Q, ord.Actors, partitions)
	if err != nil {
		return Partition{}, err
	}
	return Partition{Part: p}, nil
}

// RunSegAlloc packs the per-segment parallel memory image for a phased
// schedule: phase-axis lifetimes, one first-fit segment per worker plus the
// shared cross-worker segment.
func RunSegAlloc(g *sdf.Graph, rep Repetitions, part Partition) (SegmentedAllocation, error) {
	seg, err := partition.Allocate(g, rep.Q, part.Part)
	if err != nil {
		return SegmentedAllocation{}, err
	}
	return SegmentedAllocation{Seg: seg}, nil
}

// betterAlloc reports whether candidate beats the current best allocation:
// strictly smaller total, or — the deterministic tie-break — equal total
// with a lexicographically smaller allocator name. Tie-breaking by name
// rather than by the caller's Allocators slice order keeps artifact bytes
// stable across equivalent option spellings.
func betterAlloc(cand Allocation, best *alloc.Allocation, bestBy alloc.Strategy) bool {
	if best == nil || cand.Alloc.Total < best.Total {
		return true
	}
	return cand.Alloc.Total == best.Total && cand.Strategy.String() < bestBy.String()
}

// checkpoint is the cancellation point before every pass, on the direct
// pipelines and the Plan executor alike: it aborts once ctx is cancelled or
// past its deadline, naming the pass kind it would have run and wrapping
// the context error so callers can errors.Is on it. Cancellation is
// checked between passes, not inside them — the passes stay pure functions
// with no context plumbing.
func checkpoint(ctx context.Context, k Kind) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: aborted before %s pass: %w", k, err)
	}
	return nil
}

// finishResult assembles one grid point's Result from its pass artifacts:
// allocation bookkeeping with the name tie-break, the metrics block (copied
// from the artifacts, except the graph's own BMLB), and the optional verify
// and merge steps, each behind an assemble checkpoint.
// It is the single assembly shared by the sequential CompileContext and the
// Plan executor, which is what keeps the two paths byte-identical.
func finishResult(ctx context.Context, g *sdf.Graph, opts Options, rep Repetitions,
	order []sdf.ActorID, ls LoopedSchedule, lf Lifetimes, allocs []Allocation,
	part Partition, seg SegmentedAllocation) (*Result, error) {
	res := &Result{
		Graph:       g,
		Repetitions: rep.Q,
		Order:       order,
		Schedule:    ls.Schedule,
		PeriodLen:   lf.PeriodLen,
		Intervals:   lf.Intervals,
		Allocations: make(map[alloc.Strategy]*alloc.Allocation, len(allocs)),
		Partition:   part.Part,
		Segmented:   seg.Seg,
	}
	res.Metrics.DPCost = ls.DPCost
	res.Metrics.AllocTotals = make(map[string]int64, len(allocs))
	for _, a := range allocs {
		res.Allocations[a.Strategy] = a.Alloc
		res.Metrics.AllocTotals[a.Strategy.String()] = a.Alloc.Total
		if betterAlloc(a, res.Best, res.BestBy) {
			res.Best = a.Alloc
			res.BestBy = a.Strategy
		}
	}
	res.Metrics.SharedTotal = res.Best.Total
	res.Metrics.MCO, res.Metrics.MCP = lf.MCO, lf.MCP
	res.Metrics.NonSharedBufMem = lf.BufMem
	bmlb, err := g.BMLB()
	if err != nil {
		return nil, err
	}
	res.Metrics.BMLB = bmlb
	if res.Segmented != nil {
		res.Metrics.ParallelTotal = res.Segmented.Total
	}

	if opts.Verify {
		if err := checkpoint(ctx, KindAssemble); err != nil {
			return nil, err
		}
		periods := opts.VerifyPeriods
		if periods <= 0 {
			periods = 2
		}
		if err := sim.Run(ls.Schedule, lf.Intervals, res.Best, periods); err != nil {
			return nil, fmt.Errorf("core: verification failed: %w", err)
		}
		if res.Partition != nil {
			if err := sim.RunPhased(g, res.Partition, res.Segmented, periods); err != nil {
				return nil, fmt.Errorf("core: phased verification failed: %w", err)
			}
		}
	}

	res.Metrics.MergedTotal = res.Metrics.SharedTotal
	if opts.Merging {
		if err := checkpoint(ctx, KindAssemble); err != nil {
			return nil, err
		}
		total, merges, err := applyMerging(res, opts, defaultAllocators(opts.Allocators))
		if err != nil {
			return nil, err
		}
		res.Metrics.MergedTotal = total
		res.Metrics.Merges = merges
	}
	return res, nil
}

// applyMerging grows an allocation-aware merge plan (Sec. 12): candidates
// with non-periodic lifetimes are folded one by one, keeping each merge only
// if the packed total shrinks. Merge trials operate on fresh interval
// enumerations (merge.Apply copies), never on the shared Lifetimes artifact.
func applyMerging(res *Result, opts Options, allocators []alloc.Strategy) (int64, int, error) {
	cands := merge.Candidates(res.Schedule, nil)
	var solid []merge.Candidate
	for _, c := range cands {
		if len(res.Intervals[c.In].Periods) == 0 && len(res.Intervals[c.Out].Periods) == 0 {
			solid = append(solid, c)
		}
	}
	allocBest := func(ivs []*lifetime.Interval) (int64, error) {
		best := int64(-1)
		for _, s := range allocators {
			a := alloc.Allocate(ivs, s)
			if err := a.Verify(); err != nil {
				return 0, fmt.Errorf("core: merged allocation infeasible: %w", err)
			}
			if best < 0 || a.Total < best {
				best = a.Total
			}
		}
		return best, nil
	}
	best := res.Metrics.SharedTotal
	used := map[sdf.EdgeID]bool{}
	var plan []merge.Candidate
	for _, c := range solid {
		if c.Gain <= 0 || used[c.In] || used[c.Out] {
			continue
		}
		trial, err := allocBest(merge.Apply(res.Intervals, append(plan, c)))
		if err != nil {
			return 0, 0, err
		}
		if trial < best {
			plan = append(plan, c)
			used[c.In], used[c.Out] = true, true
			best = trial
		}
	}
	return best, len(plan), nil
}
