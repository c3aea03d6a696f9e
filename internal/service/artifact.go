package service

import (
	"slices"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/sdf"
)

// Artifact is the JSON compilation product stored in the cache and served
// by GET /v1/artifact/{digest}. Its encoding is deterministic — slices in
// fixed orders, never maps — because the digest contract promises that
// every observer of one digest sees byte-identical bytes (the pipeline
// itself is determinism-linted, so one compile per digest is enough).
type Artifact struct {
	// Schema is the artifact schema version (the digest frame prefix).
	// Consumers comparing artifacts across builds check it first so a
	// schema skew reads as an explicit mismatch, not as a spurious metric
	// regression.
	Schema  string         `json:"schema"`
	Graph   string         `json:"graph"`
	Actors  int            `json:"actors"`
	Edges   int            `json:"edges"`
	Options CompileOptions `json:"options"`
	// Schedule is the looped single appearance schedule in the paper's
	// textual form; Order is the lexical actor order behind it (empty for
	// cyclic graphs, whose schedule comes from the SCC condensation).
	Schedule string   `json:"schedule"`
	Order    []string `json:"order,omitempty"`
	// Repetitions is q(a) per actor, in actor order.
	Repetitions []ActorRepetition `json:"repetitions"`
	Metrics     ArtifactMetrics   `json:"metrics"`
	// Allocations reports every attempted allocator; Best names the one
	// whose placements follow.
	Allocations []AllocatorTotal `json:"allocations"`
	Best        string           `json:"best"`
	Placements  []Placement      `json:"placements"`
	// Partition describes the P-way phased parallel schedule when the
	// compilation requested partitions >= 2.
	Partition *ArtifactPartition `json:"partition,omitempty"`
	C         string             `json:"c,omitempty"`
	// ThreadedC is the barrier-phased parallel C program (emit_c with
	// partitions >= 2).
	ThreadedC string `json:"threaded_c,omitempty"`
	VHDL      string `json:"vhdl,omitempty"`
}

// ArtifactPartition is the wire form of the phased parallel schedule: the
// worker and phase counts, the segmented memory layout, and the memory
// tradeoff against the sequential single-address-space image.
type ArtifactPartition struct {
	Workers int `json:"workers"`
	Phases  int `json:"phases"`
	// SASTotal is the sequential best allocation total (the P=1 baseline);
	// ParallelTotal is the segmented image extent. Their ratio is the
	// memory price paid for parallelism.
	SASTotal      int64             `json:"sas_total"`
	ParallelTotal int64             `json:"parallel_total"`
	Segments      []ArtifactSegment `json:"segments"`
}

// ArtifactSegment is one region of the segmented parallel image.
type ArtifactSegment struct {
	// Worker owns the segment; -1 marks the shared cross-worker segment.
	Worker int   `json:"worker"`
	Base   int64 `json:"base"`
	Cells  int64 `json:"cells"`
}

// ActorRepetition is one entry of the repetitions vector.
type ActorRepetition struct {
	Actor string `json:"actor"`
	Q     int64  `json:"q"`
}

// ArtifactMetrics mirrors core.Metrics in wire-stable form: the buffer
// memory bounds and totals the paper's tables report.
type ArtifactMetrics struct {
	BMLB            int64 `json:"bmlb"`
	NonSharedBufMem int64 `json:"non_shared_bufmem"`
	DPCost          int64 `json:"dp_cost"`
	MCO             int64 `json:"mco"`
	MCP             int64 `json:"mcp"`
	SharedTotal     int64 `json:"shared_total"`
	MergedTotal     int64 `json:"merged_total"`
	Merges          int   `json:"merges"`
	ParallelTotal   int64 `json:"parallel_total,omitempty"`
}

// AllocatorTotal is one allocator's achieved total.
type AllocatorTotal struct {
	Allocator string `json:"allocator"`
	Total     int64  `json:"total"`
}

// Placement is one buffer's position in the best shared memory image.
type Placement struct {
	Buffer string `json:"buffer"`
	Offset int64  `json:"offset"`
	Size   int64  `json:"size"`
}

// buildArtifact renders a compilation result as the wire artifact.
func buildArtifact(res *core.Result, o CompileOptions) *Artifact {
	g := res.Graph
	art := &Artifact{
		Schema:   SchemaVersion,
		Graph:    g.Name,
		Actors:   g.NumActors(),
		Edges:    g.NumEdges(),
		Options:  o,
		Schedule: res.Schedule.String(),
		Best:     res.BestBy.String(),
		Metrics: ArtifactMetrics{
			BMLB:            res.Metrics.BMLB,
			NonSharedBufMem: res.Metrics.NonSharedBufMem,
			DPCost:          res.Metrics.DPCost,
			MCO:             res.Metrics.MCO,
			MCP:             res.Metrics.MCP,
			SharedTotal:     res.Metrics.SharedTotal,
			MergedTotal:     res.Metrics.MergedTotal,
			Merges:          res.Metrics.Merges,
			ParallelTotal:   res.Metrics.ParallelTotal,
		},
	}
	// Slices are sized up front but stay nil when empty: a nil slice
	// encodes as null and an empty one as [], and the wire form has null.
	if len(res.Order) > 0 {
		art.Order = make([]string, len(res.Order))
		for i, a := range res.Order {
			art.Order[i] = g.Actor(a).Name
		}
	}
	if g.NumActors() > 0 {
		art.Repetitions = make([]ActorRepetition, g.NumActors())
		for i, a := range g.Actors() {
			art.Repetitions[i] = ActorRepetition{Actor: a.Name, Q: res.Repetitions.Q(a.ID)}
		}
	}
	totals := make([]AllocatorTotal, 0, len(res.Metrics.AllocTotals))
	for name, total := range res.Metrics.AllocTotals {
		totals = append(totals, AllocatorTotal{Allocator: name, Total: total})
	}
	slices.SortFunc(totals, func(a, b AllocatorTotal) int { return strings.Compare(a.Allocator, b.Allocator) })
	art.Allocations = totals
	if len(res.Best.Placements) > 0 {
		art.Placements = make([]Placement, len(res.Best.Placements))
		for i, p := range res.Best.Placements {
			art.Placements[i] = Placement{Buffer: p.Interval.Name, Offset: p.Offset, Size: p.Interval.Size}
		}
	}
	if res.Partition != nil {
		ap := &ArtifactPartition{
			Workers:       res.Partition.P,
			Phases:        res.Partition.NumPhases,
			SASTotal:      res.Metrics.SharedTotal,
			ParallelTotal: res.Segmented.Total,
		}
		if len(res.Segmented.Segments) > 0 {
			ap.Segments = make([]ArtifactSegment, len(res.Segmented.Segments))
			for i, s := range res.Segmented.Segments {
				ap.Segments[i] = ArtifactSegment{Worker: s.Worker, Base: s.Base, Cells: s.Cells}
			}
		}
		art.Partition = ap
	}
	if o.EmitC {
		art.C = codegen.GenerateC(res)
		if res.Partition != nil {
			art.ThreadedC = codegen.GenerateThreadedC(res)
		}
	}
	if o.EmitVHDL {
		art.VHDL = codegen.GenerateVHDL(res)
	}
	return art
}

// ArtifactBytes marshals an already-computed compilation result as the wire
// artifact for normalized options opts. It is the same rendering
// CompileArtifact performs after compiling, split out so the grid planner —
// which produces many Results from one shared pass graph — can cache each
// entry under the identical bytes a direct /v1/compile of that entry would
// produce. The bytes are encoding/json's for the Artifact, written without
// reflection (encode.go); the error is kept for callers and is always nil.
func ArtifactBytes(res *core.Result, opts CompileOptions) ([]byte, error) {
	return encodeArtifact(buildArtifact(res, opts)), nil
}

// CompileArtifact runs the in-process pipeline on g under opts and returns
// the marshaled artifact bytes plus the compilation result. It is the
// single code path shared by the daemon's worker jobs and by offline
// clients that need a reference artifact to compare server responses
// against (sdffuzz -daemon): both sides producing bytes through this one
// function is what makes "server response == in-process output" a
// byte-equality assertion.
func CompileArtifact(g *sdf.Graph, opts CompileOptions) ([]byte, *core.Result, error) {
	norm, err := normalize(opts)
	if err != nil {
		return nil, nil, err
	}
	copts, err := coreOptions(norm)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.CompileGeneral(g, copts)
	if err != nil {
		return nil, nil, err
	}
	data, err := ArtifactBytes(res, norm)
	if err != nil {
		return nil, nil, err
	}
	return data, res, nil
}
