package core

import (
	"context"

	"repro/internal/pass"
	"repro/internal/sdf"
)

// CompileGeneral compiles an arbitrary consistent SDF graph, including
// graphs whose precedence relation is cyclic. Acyclic graphs take the normal
// Compile path; cyclic graphs go through the SCC-condensation decomposition
// implemented by pass.CompileGeneral (see that function for the algorithm).
func CompileGeneral(g *sdf.Graph, opts Options) (*Result, error) {
	return pass.CompileGeneral(g, opts)
}

// CompileGeneralContext is CompileGeneral with cooperative cancellation, on
// the same contract as CompileContext: ctx is checked at a checkpoint before
// each pass (and between per-component demand-driven scheduling runs on the
// cyclic path).
func CompileGeneralContext(ctx context.Context, g *sdf.Graph, opts Options) (*Result, error) {
	return pass.CompileGeneralContext(ctx, g, opts)
}
