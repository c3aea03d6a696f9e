package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/randsdf"
	"repro/internal/sdf"
)

// Fig27Config controls the random-graph study of Sec. 10.3 / Fig. 27.
type Fig27Config struct {
	Sizes   []int // node counts; paper: 20, 50, 100, 150
	PerSize int   // graphs per size; paper: 100
	Seed    int64
}

// DefaultFig27Config reproduces the paper's populations.
func DefaultFig27Config() Fig27Config {
	return Fig27Config{Sizes: []int{20, 50, 100, 150}, PerSize: 100, Seed: 2000}
}

// Fig27Point aggregates the six charts of Fig. 27 for one graph size.
type Fig27Point struct {
	Size   int
	Graphs int
	// (a) mean % by which the best shared implementation improves on the
	// best non-shared implementation.
	SharedImprovePct float64
	// (b) mean % by which the achieved allocation exceeds the optimistic
	// clique estimate; (c) mean % by which the pessimistic estimate exceeds
	// the allocation.
	AllocVsMcoPct, McpVsAllocPct float64
	// (d) mean % difference between the best allocation and the best sdppo
	// estimate.
	AllocVsSdppoPct float64
	// (e) mean % by which the RPMC-based allocation beats the APGAN-based
	// one; (f) fraction (in %) of graphs where RPMC strictly wins.
	RPMCvsAPGANPct, RPMCWinPct float64
}

// graphOutcome holds one random graph's full pipeline results.
type graphOutcome struct {
	sharedBest, nonSharedBest int64
	mco, mcp                  int64
	sdppoBest                 int64
	rpmcAlloc, apganAlloc     int64
}

// Fig27 runs the random-graph study. Graphs are generated and compiled in
// parallel (bounded by GOMAXPROCS); each worker derives its own rand source
// from the graph's index so results are deterministic regardless of
// scheduling and no *rand.Rand is ever shared across goroutines.
func Fig27(cfg Fig27Config) ([]Fig27Point, error) {
	var out []Fig27Point
	for si, size := range cfg.Sizes {
		outcomes, err := par.Map(cfg.PerSize, func(i int) (graphOutcome, error) {
			seed := cfg.Seed + int64(si)*1_000_003 + int64(i)
			g := randsdf.Graph(rand.New(rand.NewSource(seed)), randsdf.Config{Actors: size})
			oc, err := runOne(g)
			if err != nil {
				return oc, fmt.Errorf("graph %d: %w", i, err)
			}
			return oc, nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: fig27 size %d: %w", size, err)
		}
		var p Fig27Point
		p.Size = size
		var sumA, sumB, sumC, sumD, sumE float64
		wins := 0
		for _, oc := range outcomes {
			p.Graphs++
			sumA += pct(oc.nonSharedBest-oc.sharedBest, oc.nonSharedBest)
			sumB += pct(oc.sharedBest-oc.mco, oc.sharedBest)
			sumC += pct(oc.mcp-oc.sharedBest, oc.sharedBest)
			d := oc.sharedBest - oc.sdppoBest
			if d < 0 {
				d = -d
			}
			sumD += pct(d, oc.sharedBest)
			sumE += pct(oc.apganAlloc-oc.rpmcAlloc, oc.apganAlloc)
			if oc.rpmcAlloc < oc.apganAlloc {
				wins++
			}
		}
		n := float64(p.Graphs)
		p.SharedImprovePct = sumA / n
		p.AllocVsMcoPct = sumB / n
		p.McpVsAllocPct = sumC / n
		p.AllocVsSdppoPct = sumD / n
		p.RPMCvsAPGANPct = sumE / n
		p.RPMCWinPct = 100 * float64(wins) / n
		out = append(out, p)
	}
	return out, nil
}

// runOne compiles one graph under both order strategies and gathers the
// Fig. 27 measurements.
func runOne(g *sdf.Graph) (graphOutcome, error) {
	var oc graphOutcome
	oc.sharedBest, oc.nonSharedBest, oc.sdppoBest = -1, -1, -1
	for _, strat := range []core.OrderStrategy{core.RPMC, core.APGAN} {
		ns, err := core.Compile(g, core.Options{Strategy: strat, Looping: core.DPPOLoops})
		if err != nil {
			return oc, err
		}
		sh, err := core.Compile(g, core.Options{
			Strategy:   strat,
			Looping:    core.SDPPOLoops,
			Allocators: []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart},
		})
		if err != nil {
			return oc, err
		}
		if oc.nonSharedBest < 0 || ns.Metrics.NonSharedBufMem < oc.nonSharedBest {
			oc.nonSharedBest = ns.Metrics.NonSharedBufMem
		}
		if oc.sdppoBest < 0 || sh.Metrics.DPCost < oc.sdppoBest {
			oc.sdppoBest = sh.Metrics.DPCost
		}
		if strat == core.RPMC {
			oc.rpmcAlloc = sh.Best.Total
		} else {
			oc.apganAlloc = sh.Best.Total
		}
		if oc.sharedBest < 0 || sh.Best.Total < oc.sharedBest {
			oc.sharedBest = sh.Best.Total
			oc.mco = sh.Metrics.MCO
			oc.mcp = sh.Metrics.MCP
		}
	}
	return oc, nil
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// FormatFig27 renders the six chart series as a table.
func FormatFig27(points []Fig27Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s | %9s %9s %9s %9s %9s %9s\n",
		"nodes", "graphs", "(a)shr%", "(b)v.mco", "(c)v.mcp", "(d)v.sdp", "(e)R>A%", "(f)Rwin%")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d %6d | %8.2f%% %8.2f%% %8.2f%% %8.2f%% %8.2f%% %8.1f%%\n",
			p.Size, p.Graphs, p.SharedImprovePct, p.AllocVsMcoPct, p.McpVsAllocPct,
			p.AllocVsSdppoPct, p.RPMCvsAPGANPct, p.RPMCWinPct)
	}
	return b.String()
}
