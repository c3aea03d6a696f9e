package load

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/randsdf"
	"repro/internal/regularity"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/service"
	"repro/internal/systems"
)

// OpKind classifies one request of the workload mix.
type OpKind int

const (
	// OpCold compiles a never-before-seen random graph: a guaranteed cache
	// miss that runs the full pipeline.
	OpCold OpKind = iota
	// OpWarm re-compiles one of the six example systems: after the first
	// round these are cache hits.
	OpWarm
	// OpEdit compiles a single-actor-rename edit of a fixed base graph,
	// cycling through a small set of variants: against a daemon with a
	// pass-node store these load every unaffected stage instead of
	// executing it, and without a store they exercise the pipeline the way
	// interactive editing does.
	OpEdit
	// OpGrid posts a /v1/grid burst: one graph across many option sets in
	// one planned run.
	OpGrid
)

// String returns the report spelling of the kind.
func (k OpKind) String() string {
	switch k {
	case OpCold:
		return "cold"
	case OpWarm:
		return "warm"
	case OpEdit:
		return "edit"
	case OpGrid:
		return "grid"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// Op is one fully prepared request: the workload model builds bodies ahead
// of the send so request construction never contaminates the latency path
// more than necessary (warm/edit/grid bodies are prebuilt; cold bodies are
// generated per index, deterministically).
type Op struct {
	Kind OpKind
	// Index is the op's position in the deterministic sequence. Multi-target
	// senders key their peer assignment off it so the same workload hits the
	// same peers on every run.
	Index int64
	Path  string // URL path, e.g. "/v1/compile"
	Body  []byte // JSON request body
}

// Mix weights the four operation kinds. Zero-valued kinds never occur; at
// least one weight must be positive.
type Mix struct {
	Cold int `json:"cold"`
	Warm int `json:"warm"`
	Edit int `json:"edit"`
	Grid int `json:"grid"`
}

func (m Mix) total() int { return m.Cold + m.Warm + m.Edit + m.Grid }

// Workload is a deterministic request generator: the same (seed, mix,
// gridEntries) triple yields the identical op sequence on every run and
// every machine, so two load reports with the same label and config are
// comparing the same traffic. Safe for concurrent Op calls.
type Workload struct {
	seed    int64
	mix     Mix
	pattern []OpKind // weighted, seed-shuffled kind cycle
	warm    [][]byte
	edits   [][]byte
	grid    []byte
}

// editVariants is how many distinct single-actor-rename edits the edit op
// cycles through. Small enough that a store-backed daemon converges to warm
// loads quickly, large enough to keep the store path honest.
const editVariants = 24

// NewWorkload builds the deterministic workload model. gridEntries bounds
// the option sets per /v1/grid burst (<=0 selects 6).
func NewWorkload(seed int64, mix Mix, gridEntries int) (*Workload, error) {
	if mix.Cold < 0 || mix.Warm < 0 || mix.Edit < 0 || mix.Grid < 0 || mix.total() == 0 {
		return nil, fmt.Errorf("load: mix needs non-negative weights with a positive total, got %+v", mix)
	}
	if gridEntries <= 0 {
		gridEntries = 6
	}
	w := &Workload{seed: seed, mix: mix}

	// The kind cycle: exact weight proportions, seed-shuffled interleaving.
	for _, kw := range []struct {
		kind OpKind
		n    int
	}{{OpCold, mix.Cold}, {OpWarm, mix.Warm}, {OpEdit, mix.Edit}, {OpGrid, mix.Grid}} {
		for i := 0; i < kw.n; i++ {
			w.pattern = append(w.pattern, kw.kind)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.pattern), func(i, j int) {
		w.pattern[i], w.pattern[j] = w.pattern[j], w.pattern[i]
	})

	// Warm pool: the six example systems, mirroring the repository's
	// example programs.
	for _, g := range warmSystems() {
		body, err := compileBody(g)
		if err != nil {
			return nil, fmt.Errorf("load: warm corpus: %w", err)
		}
		w.warm = append(w.warm, body)
	}

	// Edit pool: one 60-actor base graph, each variant renaming one actor.
	// Rates, delays, and topology stay fixed, which is exactly the shape
	// the pass-node store reuses across requests.
	base := randsdf.Graph(rand.New(rand.NewSource(seed+1)), randsdf.Config{Actors: 60})
	for v := 0; v < editVariants; v++ {
		body, err := compileBody(renameActor(base, v%len(base.Actors()), fmt.Sprintf("edit%d", v)))
		if err != nil {
			return nil, fmt.Errorf("load: edit corpus: %w", err)
		}
		w.edits = append(w.edits, body)
	}

	// Grid burst: the satellite receiver across the (strategy x looping)
	// grid, one allocator per entry, capped at gridEntries.
	gridGraph, err := sdfio.CanonicalString(systems.SatelliteReceiver())
	if err != nil {
		return nil, fmt.Errorf("load: grid corpus: %w", err)
	}
	var entries []service.CompileOptions
	for _, strat := range []string{"rpmc", "apgan"} {
		for _, la := range []string{"sdppo", "dppo", "chain", "flat"} {
			entries = append(entries, service.CompileOptions{
				Strategy: strat, Looping: la, Allocators: []string{"ffdur"},
			})
		}
	}
	if len(entries) > gridEntries {
		entries = entries[:gridEntries]
	}
	w.grid, err = json.Marshal(service.GridRequest{Graph: gridGraph, Entries: entries})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Mix returns the configured mix weights.
func (w *Workload) Mix() Mix { return w.mix }

// Op returns the i-th request of the deterministic sequence. Concurrent
// calls are safe: all shared state is immutable after NewWorkload.
func (w *Workload) Op(i int64) Op {
	kind := w.pattern[int(i%int64(len(w.pattern)))]
	switch kind {
	case OpWarm:
		return Op{Kind: OpWarm, Index: i, Path: "/v1/compile", Body: w.warm[int(i%int64(len(w.warm)))]}
	case OpEdit:
		return Op{Kind: OpEdit, Index: i, Path: "/v1/compile", Body: w.edits[int(i%int64(len(w.edits)))]}
	case OpGrid:
		return Op{Kind: OpGrid, Index: i, Path: "/v1/grid", Body: w.grid}
	case OpCold:
		return Op{Kind: OpCold, Index: i, Path: "/v1/compile", Body: w.coldBody(i)}
	default:
		panic(fmt.Sprintf("load: unknown op kind %d in pattern", int(kind)))
	}
}

// coldBody generates the i-th cold graph: a fresh consistent random graph
// whose seed is a function of (workload seed, i) only.
func (w *Workload) coldBody(i int64) []byte {
	const golden = int64(-0x61C8864680B583EB) // 2^64 / phi, as a signed constant
	rng := rand.New(rand.NewSource(w.seed ^ (golden * (i + 1))))
	g := randsdf.Graph(rng, randsdf.Config{Actors: 16 + int(i%17)})
	body, err := compileBody(g)
	if err != nil {
		// randsdf graphs are consistent by construction and canonicalize
		// by construction; fail loudly rather than send garbage.
		panic(fmt.Sprintf("load: cold graph %d: %v", i, err))
	}
	return body
}

// compileBody renders a graph as a /v1/compile request body with default
// options.
func compileBody(g *sdf.Graph) ([]byte, error) {
	text, err := sdfio.CanonicalString(g)
	if err != nil {
		return nil, err
	}
	return json.Marshal(service.CompileRequest{Graph: text})
}

// renameActor clones g with actor index idx renamed to prefix_oldname.
func renameActor(g *sdf.Graph, idx int, prefix string) *sdf.Graph {
	out := sdf.New(g.Name)
	for i, a := range g.Actors() {
		name := a.Name
		if i == idx {
			name = prefix + "_" + name
		}
		out.AddActor(name)
	}
	for _, e := range g.Edges() {
		id := out.AddEdge(e.Src, e.Dst, e.Prod, e.Cons, e.Delay)
		out.SetWords(id, e.Words)
	}
	return out
}

// warmSystems mirrors the repository's six example programs.
func warmSystems() []*sdf.Graph {
	quick := sdf.New("quickstart")
	a := quick.AddActor("A")
	b := quick.AddActor("B")
	c := quick.AddActor("C")
	quick.AddEdge(a, b, 3, 2, 0)
	quick.AddEdge(b, c, 5, 7, 0)
	return []*sdf.Graph{
		quick,
		regularity.FIR(8),
		systems.OneSidedFilterbank(4, systems.Ratio23),
		systems.SatelliteReceiver(),
		systems.Homogeneous(4, 4),
		systems.CDDAT(),
	}
}
