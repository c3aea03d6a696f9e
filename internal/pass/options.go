package pass

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/sdf"
)

// OrderStrategy selects how the lexical ordering (topological sort) is
// generated.
type OrderStrategy int

const (
	// APGAN clusters adjacent actors bottom-up by maximum repetition gcd.
	APGAN OrderStrategy = iota
	// RPMC partitions the graph top-down by minimum legal cuts.
	RPMC
	// CustomOrder uses Options.Order verbatim.
	CustomOrder
)

// String names the strategy as in the paper's tables ("(A)" / "(R)").
func (s OrderStrategy) String() string {
	switch s {
	case APGAN:
		return "APGAN"
	case RPMC:
		return "RPMC"
	case CustomOrder:
		return "custom"
	default:
		return fmt.Sprintf("OrderStrategy(%d)", int(s))
	}
}

// LoopAlg selects the loop-hierarchy post-optimization.
type LoopAlg int

const (
	// SDPPOLoops is the shared-model heuristic DP (EQ 5) — the paper's
	// default for shared-memory synthesis.
	SDPPOLoops LoopAlg = iota
	// DPPOLoops is the non-shared-model DP (EQ 2/3).
	DPPOLoops
	// ChainPreciseLoops uses the exact triple-cost DP of Sec. 6 when the
	// graph is chain-structured under the chosen order, falling back to
	// SDPPO otherwise.
	ChainPreciseLoops
	// FlatLoops skips post-optimization and keeps the flat SAS.
	FlatLoops
)

// String names the looping algorithm.
func (l LoopAlg) String() string {
	switch l {
	case SDPPOLoops:
		return "sdppo"
	case DPPOLoops:
		return "dppo"
	case ChainPreciseLoops:
		return "chain-sdppo"
	case FlatLoops:
		return "flat"
	default:
		return fmt.Sprintf("LoopAlg(%d)", int(l))
	}
}

// Options configures a compilation (one grid point). The zero value orders
// by APGAN (the zero OrderStrategy), loops by SDPPO and tries
// first-fit-by-duration and first-fit-by-start allocation, keeping the
// better result. The paper's recommended RPMC ordering must be asked for
// with Strategy: RPMC; the service's wire options default to it.
type Options struct {
	Strategy OrderStrategy
	Order    []sdf.ActorID // used only with CustomOrder
	Looping  LoopAlg
	// Allocators to try; the smallest feasible result is selected, ties
	// broken by allocator name. Default: ffdur and ffstart.
	Allocators []alloc.Strategy
	// Verify runs the token-level shared-memory simulator for VerifyPeriods
	// periods (default 2) and fails compilation on any safety violation.
	Verify        bool
	VerifyPeriods int
	// Merging enables the Sec. 12 buffer-merging extension: input/output
	// buffer pairs across consume-before-produce actors are folded into one
	// array when that provably shrinks the packed total. Merged buffers use
	// a combined memory image that the token-level simulator cannot check,
	// so Verify covers the unmerged allocation and merging is applied after.
	Merging bool
	// Partitions, when >= 2, additionally compiles a P-way phased parallel
	// schedule (internal/partition) with a per-segment storage allocation:
	// one private segment per worker plus a shared segment for cross-worker
	// edges, run self-timed: each worker waits only on the links and drains
	// its next firing needs. Values <= 1 select the sequential
	// single-address-space path unchanged — a P=1 "partitioning" is the
	// sequential schedule, so it is never materialized and the artifact
	// bytes stay byte-identical to a compilation without the field.
	Partitions int
}

// defaultAllocators resolves the allocator list, applying the paper's
// default pair when the caller left it empty.
func defaultAllocators(in []alloc.Strategy) []alloc.Strategy {
	if len(in) > 0 {
		return in
	}
	return []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart}
}
