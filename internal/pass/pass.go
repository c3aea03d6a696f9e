// Package pass decomposes the Fig. 21 compilation flow of Murthy &
// Bhattacharyya's shared-memory SDF synthesis into a typed pass graph:
//
//	SDF graph -> repetitions vector -> topological sort (APGAN or RPMC) ->
//	flat SAS -> loop-hierarchy post-optimization (DPPO / SDPPO / precise
//	chain DP) -> schedule tree -> buffer lifetime extraction -> dynamic
//	storage allocation (first-fit) -> verified shared memory image.
//
// Each stage is a pure pass, named by its Kind, with an explicit
// input/output artifact struct (Repetitions, Order, LoopedSchedule,
// Lifetimes, Allocation). Each kind has one option projection (store.go):
// the bytes of exactly the Options fields that pass reads. A plan node is
// identified by its parent node plus that projection, and the persistent
// store key hashes the same bytes, so the two cannot disagree about which
// option fields a pass reads. internal/core re-exports the public compiler
// API (Options, Result, Compile, ...) as thin assemblies over these passes.
//
// The point of the decomposition is the Plan executor: grid consumers —
// the experiment drivers, the sdffuzz configuration sweep, and the sdfd
// /v1/grid endpoint — compile one graph under many option sets, and the
// planner deduplicates the shared pipeline prefix across grid points (q
// once per graph, one topological sort per ordering strategy, one schedule
// per strategy x loop DP, lifetimes once per schedule, allocators fanned
// out as leaves), executing independent branches in parallel on
// internal/par. See docs/PIPELINE.md for the stage mapping table.
//
// Everything in this package is deterministic and linted as such
// (internal/lint's bannedcall set): compiling the same graph twice — on
// one goroutine or many, through Compile or through a Plan — yields
// identical results.
package pass

import "fmt"

// Kind identifies one pass of the pipeline graph. The constants are ordered
// as the pipeline runs; Kinds returns them in that order.
type Kind int

const (
	// KindRepetitions computes the repetitions vector q (Sec. 2).
	KindRepetitions Kind = iota
	// KindOrder generates the lexical actor ordering (APGAN / RPMC /
	// caller-supplied).
	KindOrder
	// KindSchedule builds the looped single appearance schedule via the
	// selected loop-hierarchy DP.
	KindSchedule
	// KindLifetimes extracts per-edge buffer lifetime intervals from the
	// schedule tree.
	KindLifetimes
	// KindAlloc packs one allocator's shared-memory image.
	KindAlloc
	// KindPartition builds the P-way phased schedule (Options.Partitions
	// workers, barrier-delimited phases) over the precedence levels.
	KindPartition
	// KindSegalloc packs the per-segment parallel memory image: one private
	// segment per worker plus the shared cross-worker segment.
	KindSegalloc
	// KindAssemble is the per-grid-point leaf: best-allocator selection,
	// metrics, optional verification and buffer merging.
	KindAssemble
)

// String names the pass kind as used in metrics labels, abort errors and
// events.
func (k Kind) String() string {
	switch k {
	case KindRepetitions:
		return "repetitions"
	case KindOrder:
		return "order"
	case KindSchedule:
		return "schedule"
	case KindLifetimes:
		return "lifetimes"
	case KindAlloc:
		return "alloc"
	case KindPartition:
		return "partition"
	case KindSegalloc:
		return "segalloc"
	case KindAssemble:
		return "assemble"
	default:
		panic(fmt.Sprintf("pass: unknown kind %d", int(k)))
	}
}

// Kinds enumerates every pass kind in pipeline order.
func Kinds() []Kind {
	return []Kind{KindRepetitions, KindOrder, KindSchedule, KindLifetimes, KindAlloc, KindPartition, KindSegalloc, KindAssemble}
}

// Event reports one pass node starting (Enter true) or completing (Enter
// false) during plan execution. Node is the node's index among the plan's
// nodes of its Kind (for KindAssemble, the grid point's index), so an
// Enter and its Leave pair on (Kind, Node). Events for independent
// branches are emitted concurrently; handlers must be safe for concurrent
// use and must not influence compilation.
type Event struct {
	Kind  Kind
	Node  int
	Enter bool
}
