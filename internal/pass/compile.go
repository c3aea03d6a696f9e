package pass

import (
	"context"

	"repro/internal/sdf"
)

// Compile runs the full flow on a consistent acyclic SDF graph: the thin
// sequential assembly of the pass graph.
func Compile(g *sdf.Graph, opts Options) (*Result, error) {
	return CompileContext(context.Background(), g, opts)
}

// CompileContext is Compile with cooperative cancellation: the deadline or
// cancellation of ctx is observed at a checkpoint before every pass — one
// per allocator, as the Plan executor has one alloc node per allocator — so
// a cancelled compilation aborts before the same pass kind, with the same
// error, as a single-point Plan would. The error wraps ctx.Err(); no Result
// is returned.
func CompileContext(ctx context.Context, g *sdf.Graph, opts Options) (*Result, error) {
	if err := checkpoint(ctx, KindRepetitions); err != nil {
		return nil, err
	}
	rep, err := RunRepetitions(g)
	if err != nil {
		return nil, err
	}
	if err := checkpoint(ctx, KindOrder); err != nil {
		return nil, err
	}
	ord, err := RunOrder(g, rep, opts.Strategy, opts.Order)
	if err != nil {
		return nil, err
	}
	if err := checkpoint(ctx, KindSchedule); err != nil {
		return nil, err
	}
	ls, err := RunSchedule(g, rep, ord, opts.Looping)
	if err != nil {
		return nil, err
	}
	if err := checkpoint(ctx, KindLifetimes); err != nil {
		return nil, err
	}
	lf, err := RunLifetimes(rep, ls)
	if err != nil {
		return nil, err
	}
	allocators := defaultAllocators(opts.Allocators)
	allocs := make([]Allocation, 0, len(allocators))
	for _, strat := range allocators {
		if err := checkpoint(ctx, KindAlloc); err != nil {
			return nil, err
		}
		a, err := RunAlloc(lf, strat)
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, a)
	}
	var part Partition
	var seg SegmentedAllocation
	if opts.Partitions >= 2 {
		if err := checkpoint(ctx, KindPartition); err != nil {
			return nil, err
		}
		if part, err = RunPartition(g, rep, ord, opts.Partitions); err != nil {
			return nil, err
		}
		if err := checkpoint(ctx, KindSegalloc); err != nil {
			return nil, err
		}
		if seg, err = RunSegAlloc(g, rep, part); err != nil {
			return nil, err
		}
	}
	return finishResult(ctx, g, opts, rep, ord.Actors, ls, lf, allocs, part, seg)
}
