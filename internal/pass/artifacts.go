package pass

import (
	"sync"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Repetitions is the artifact of the q pass: the balanced minimal
// repetitions vector of the graph.
type Repetitions struct {
	Q sdf.Repetitions
}

// Order is the artifact of the topological-sort pass: the lexical actor
// ordering the schedule is built over.
type Order struct {
	Actors []sdf.ActorID
}

// LoopedSchedule is the artifact of the loop-hierarchy pass: the
// post-optimized nested single appearance schedule plus the DP's objective
// value (bufmem for DPPO, the shared overlay estimate for SDPPO / chain DP).
type LoopedSchedule struct {
	Schedule *sched.Schedule
	DPCost   int64
}

// Lifetimes is the artifact of the lifetime-extraction pass: one buffer
// lifetime interval per edge (indexed by edge ID), the schedule period they
// live in, and the metrics that are functions of the schedule and the edge
// words. The intervals are shared read-only by every downstream allocator
// node.
type Lifetimes struct {
	Intervals []*lifetime.Interval
	// PeriodLen is the length of one schedule period in abstract time steps
	// (the schedule tree's TotalDur).
	PeriodLen int64
	// BufMem is the schedule's simulated non-shared buffer memory (EQ 1);
	// MCO and MCP are the clique-weight estimates over Intervals. They live
	// here, not with the schedule, because the lifetimes store key covers
	// the edge words that BufMem scales by and the schedule key does not.
	BufMem, MCO, MCP int64
	// wig lazily caches the weighted intersection graph over Intervals, so
	// the allocator leaves sharing this artifact build it once instead of
	// once per strategy.
	wig *wigOnce
}

type wigOnce struct {
	once sync.Once
	w    *lifetime.WIG
}

// intersectionGraph returns the cached WIG over the intervals, building it
// on first use; an artifact without a cache builds a private one.
func (lf Lifetimes) intersectionGraph() *lifetime.WIG {
	if lf.wig == nil {
		return lifetime.BuildWIG(lf.Intervals)
	}
	lf.wig.once.Do(func() {
		// The WIG cache is the one sanctioned artifact-interior write: a
		// sync.Once-guarded, deterministic, idempotent lazy initialization
		// whose value is a pure function of the (immutable) intervals.
		//lint:ignore artifactmut wigOnce lazy init is Once-guarded and deterministic
		lf.wig.w = lifetime.BuildWIG(lf.Intervals)
	})
	return lf.wig.w
}

// Allocation is the artifact of one allocator leaf: the packed shared
// memory image produced by one alloc.Strategy.
type Allocation struct {
	Strategy alloc.Strategy
	Alloc    *alloc.Allocation
}

// Partition is the artifact of the partition pass: the deterministic P-way
// phased schedule (levels over the precedence graph, load-balanced list
// assignment, barrier-delimited phases).
type Partition struct {
	Part *partition.Partitioned
}

// SegmentedAllocation is the artifact of the segmented-allocation pass: the
// parallel memory image with one first-fit-packed private segment per
// worker and a shared segment for cross-worker edges.
type SegmentedAllocation struct {
	Seg *partition.SegAlloc
}

// Result is the outcome of a compilation (one grid point, fully assembled).
type Result struct {
	Graph       *sdf.Graph
	Repetitions sdf.Repetitions
	Order       []sdf.ActorID
	// Schedule is the post-optimized nested single appearance schedule.
	Schedule *sched.Schedule
	// PeriodLen is the length of one schedule period in abstract time steps:
	// the span of a lifetime chart.
	PeriodLen int64
	// Intervals holds one buffer lifetime per edge (indexed by edge ID).
	Intervals []*lifetime.Interval
	// Allocations per strategy, and the best (smallest) one; equal totals
	// are broken deterministically by allocator name.
	Allocations map[alloc.Strategy]*alloc.Allocation
	Best        *alloc.Allocation
	BestBy      alloc.Strategy
	// Partition and Segmented carry the P-way phased schedule and its
	// per-segment storage allocation; both are nil unless the compilation
	// requested Options.Partitions >= 2 (the sequential path is unchanged).
	Partition *partition.Partitioned
	Segmented *partition.SegAlloc
	Metrics   Metrics
}

// Metrics gathers every number the paper's tables report for one run.
type Metrics struct {
	// DPCost is the looping DP's objective value (bufmem for DPPO, the
	// shared overlay estimate for SDPPO / chain DP).
	DPCost int64
	// NonSharedBufMem is the simulated bufmem (EQ 1) of the final schedule:
	// what a non-shared implementation of this same schedule would need.
	NonSharedBufMem int64
	// MCO and MCP are the optimistic and pessimistic maximum-clique-weight
	// estimates over the extracted lifetimes.
	MCO, MCP int64
	// AllocTotals maps allocator name to achieved total memory.
	AllocTotals map[string]int64
	// SharedTotal is the best allocation total.
	SharedTotal int64
	// MergedTotal is the best allocation total after buffer merging; equal
	// to SharedTotal unless Options.Merging found profitable merges.
	MergedTotal int64
	// Merges is the number of buffer pairs folded by Options.Merging.
	Merges int
	// BMLB is the non-shared buffer memory lower bound over all SASs.
	BMLB int64
	// ParallelTotal is the segmented parallel image's total extent (sum of
	// all worker segments plus the shared segment); 0 when the compilation
	// did not request partitioning. Compare against SharedTotal — the P=1
	// single-address-space baseline — for the memory-vs-P tradeoff.
	ParallelTotal int64
}
