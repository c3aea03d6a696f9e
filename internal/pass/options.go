package pass

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/merge"
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
	// MergePolicy optionally marks actors whose outputs overlap their
	// inputs (merge.Overlap); nil treats every actor as consume-before-
	// produce.
	MergePolicy func(sdf.ActorID) merge.Policy
	// Partitions, when >= 2, additionally compiles a P-way phased parallel
	// schedule (internal/partition) with a per-segment storage allocation:
	// one private segment per worker plus a shared segment for cross-worker
	// edges, barriers between phases. Values <= 1 select the sequential
	// single-address-space path unchanged — a P=1 "partitioning" is the
	// sequential schedule, so it is never materialized and the artifact
	// bytes stay byte-identical to a compilation without the field.
	Partitions int
	// OnStage, when non-nil, is invoked at the start of every pipeline
	// stage (the Stage* constants, in order) and once with StageDone when
	// compilation succeeds. The hook lets callers attribute wall time to
	// stages without putting clock reads inside the deterministic core:
	// sdfd times the interval between consecutive calls. The hook must not
	// influence compilation — it sees stage names only.
	//
	// The Plan executor ignores OnStage (shared prefix nodes belong to many
	// grid points at once, so per-point stage sequencing is undefined
	// there); plan observers use PlanConfig.OnEvent instead.
	OnStage func(stage string)
}

// Pipeline stage names reported through Options.OnStage and used in
// deadline-exceeded errors. They follow the Fig. 21 flow: the schedule stage
// covers the repetitions vector and the topological sort, loopdp is the
// loop-hierarchy DP, then lifetime extraction and storage allocation;
// verify and merge fire only when the corresponding option is set.
const (
	StageSchedule  = "schedule"
	StageLoopDP    = "loopdp"
	StageLifetime  = "lifetime"
	StageAlloc     = "alloc"
	StagePartition = "partition"
	StageSegments  = "segments"
	StageVerify    = "verify"
	StageMerge     = "merge"
	StageDone      = "done"
)

// optionsKeyMap keeps pass content keys complete: sdflint's keycomplete
// analyzer checks it mirrors Options field for field (same names, same
// types) and that each field is annotated with the pass node whose key
// carries it — or with the reason it needs no key. Adding a pipeline knob
// to Options therefore forces a decision about which key the knob belongs
// to; forgetting would otherwise let two different configurations silently
// alias one deduplicated node, and the lint diagnostic names the exact
// field that still needs a decision.
//
//lint:keymap Options
type optionsKeyMap struct {
	Strategy      OrderStrategy                  // KindOrder key
	Order         []sdf.ActorID                  // KindOrder key (custom orders)
	Looping       LoopAlg                        // KindSchedule key
	Allocators    []alloc.Strategy               // KindAlloc leaf keys, one node per allocator
	Verify        bool                           // KindAssemble: per-point leaf, never shared
	VerifyPeriods int                            // KindAssemble: per-point leaf, never shared
	Merging       bool                           // KindAssemble: per-point leaf, never shared
	MergePolicy   func(sdf.ActorID) merge.Policy // KindAssemble: per-point leaf, never shared
	OnStage       func(stage string)             // observability hook, not a compilation input
	Partitions    int                            // KindPartition key (KindSegalloc inherits it via its parent)
}

// repetitionsKey is the content key of the q pass: the graph alone decides
// it.
func repetitionsKey(graphKey string) Key {
	return Key("repetitions|g:" + graphKey)
}

// orderKey covers the graph plus the ordering fields (Strategy, and the
// explicit actor list for custom orders).
func orderKey(graphKey string, strategy OrderStrategy, custom []sdf.ActorID) Key {
	var b strings.Builder
	b.WriteString("order|g:")
	b.WriteString(graphKey)
	b.WriteString("|strat:")
	b.WriteString(strategy.String())
	if strategy == CustomOrder {
		b.WriteString("|order:")
		for i, a := range custom {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(a)))
		}
	}
	return Key(b.String())
}

// scheduleKey extends the order key with the loop-hierarchy algorithm.
func scheduleKey(parent Key, looping LoopAlg) Key {
	return Key("schedule|" + string(parent) + "|loop:" + looping.String())
}

// lifetimesKey is the schedule key verbatim: lifetime extraction reads no
// option fields of its own.
func lifetimesKey(parent Key) Key {
	return Key("lifetimes|" + string(parent))
}

// allocKey extends the lifetimes key with one allocator strategy.
func allocKey(parent Key, strat alloc.Strategy) Key {
	return Key("alloc|" + string(parent) + "|" + strat.String())
}

// partitionKey extends the order key with the worker count: the phased
// schedule reads only the precedence structure (graph + q + order) and P.
func partitionKey(parent Key, partitions int) Key {
	return Key("partition|" + string(parent) + "|p:" + strconv.Itoa(partitions))
}

// segallocKey is the partition key verbatim: the segmented allocation reads
// no option fields beyond those already in its parent's key.
func segallocKey(parent Key) Key {
	return Key("segalloc|" + string(parent))
}

// defaultAllocators resolves the allocator list, applying the paper's
// default pair when the caller left it empty.
func defaultAllocators(in []alloc.Strategy) []alloc.Strategy {
	if len(in) > 0 {
		return in
	}
	return []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart}
}
