// Package core ties the whole framework together: it implements the Fig. 21
// compilation flow of Murthy & Bhattacharyya's shared-memory SDF synthesis —
//
//	SDF graph -> repetitions vector -> topological sort (APGAN or RPMC) ->
//	flat SAS -> loop-hierarchy post-optimization (DPPO / SDPPO / precise
//	chain DP) -> schedule tree -> buffer lifetime extraction -> dynamic
//	storage allocation (first-fit) -> verified shared memory image.
//
// Compile is the single entry point a downstream user needs; the individual
// phases remain available in their own packages.
//
// Since the pass-graph refactor the pipeline body lives in internal/pass:
// each Fig. 21 stage is a typed pass, named by its pass.Kind, with an
// explicit artifact struct, and pass.Plan executes whole configuration grids
// with memoized prefix sharing. This package re-exports the option/result types
// as aliases and keeps Compile as the thin sequential assembly, so existing
// callers are untouched. See docs/PIPELINE.md.
package core

import (
	"context"

	"repro/internal/pass"
	"repro/internal/sdf"
)

// OrderStrategy selects how the lexical ordering (topological sort) is
// generated.
type OrderStrategy = pass.OrderStrategy

const (
	// APGAN clusters adjacent actors bottom-up by maximum repetition gcd.
	APGAN = pass.APGAN
	// RPMC partitions the graph top-down by minimum legal cuts.
	RPMC = pass.RPMC
	// CustomOrder uses Options.Order verbatim.
	CustomOrder = pass.CustomOrder
)

// LoopAlg selects the loop-hierarchy post-optimization.
type LoopAlg = pass.LoopAlg

const (
	// SDPPOLoops is the shared-model heuristic DP (EQ 5) — the paper's
	// default for shared-memory synthesis.
	SDPPOLoops = pass.SDPPOLoops
	// DPPOLoops is the non-shared-model DP (EQ 2/3).
	DPPOLoops = pass.DPPOLoops
	// ChainPreciseLoops uses the exact triple-cost DP of Sec. 6 when the
	// graph is chain-structured under the chosen order, falling back to
	// SDPPO otherwise.
	ChainPreciseLoops = pass.ChainPreciseLoops
	// FlatLoops skips post-optimization and keeps the flat SAS.
	FlatLoops = pass.FlatLoops
)

// Options configures Compile. The zero value orders by APGAN (the zero
// OrderStrategy), loops by SDPPO and tries first-fit-by-duration and
// first-fit-by-start allocation, keeping the better result. The paper's
// recommended RPMC ordering must be asked for with Strategy: RPMC; the
// service's wire options default to it.
type Options = pass.Options

// Result is the outcome of a compilation.
type Result = pass.Result

// Metrics gathers every number the paper's tables report for one run.
type Metrics = pass.Metrics

// Compile runs the full flow on a consistent SDF graph.
func Compile(g *sdf.Graph, opts Options) (*Result, error) {
	return pass.Compile(g, opts)
}

// CompileContext is Compile with cooperative cancellation: the deadline or
// cancellation of ctx is observed at a checkpoint before every pass, and a
// cancelled compilation returns a "core: aborted before <kind> pass" error
// wrapping ctx.Err() and no Result.
func CompileContext(ctx context.Context, g *sdf.Graph, opts Options) (*Result, error) {
	return pass.CompileContext(ctx, g, opts)
}
