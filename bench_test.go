package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus micro-benchmarks for the individual pipeline phases. Run with
//
//	go test -bench=. -benchmem
//
// Populations are reduced under -short; cmd/sdfbench runs the full sizes.

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/apgan"
	"repro/internal/core"
	"repro/internal/dynsched"
	"repro/internal/experiments"
	"repro/internal/looping"
	"repro/internal/randsdf"
	"repro/internal/regularity"
	"repro/internal/rpmc"
	"repro/internal/sched"
	"repro/internal/schedtree"
	"repro/internal/sdf"
	"repro/internal/sim"
	"repro/internal/systems"
)

// BenchmarkTable1 regenerates Table 1 (and with it the Fig. 25 improvement
// series) over all sixteen practical systems.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DefaultTable1()
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.Fig25(rows)) != len(rows) {
			b.Fatal("fig25 series mismatch")
		}
	}
}

// BenchmarkFig27 regenerates the random-graph study at each population size
// of Fig. 27 (10 graphs per size per iteration; the paper's 100 via
// cmd/sdfbench).
func BenchmarkFig27(b *testing.B) {
	sizes := []int{20, 50, 100, 150}
	if testing.Short() {
		sizes = []int{20, 50}
	}
	for _, size := range sizes {
		b.Run(benchName("nodes", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Fig27(experiments.Fig27Config{
					Sizes: []int{size}, PerSize: 10, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if pts[0].Graphs != 10 {
					b.Fatal("population mismatch")
				}
			}
		})
	}
}

// BenchmarkRandomTopsort reproduces the Sec. 10.1 random-search study on the
// satellite receiver (50 random sorts per iteration; the 1000-trial version
// runs in cmd/sdfbench).
func BenchmarkRandomTopsort(b *testing.B) {
	g := systems.SatelliteReceiver()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RandomSort(g, 50, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHomogeneous reproduces the Sec. 10.2 / Fig. 26 study.
func BenchmarkHomogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Homogeneous([]int{2, 4, 8}, []int{4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Shared > r.Expected {
				b.Fatalf("M=%d N=%d: %d > M+1", r.M, r.N, r.Shared)
			}
		}
	}
}

// BenchmarkSdppoVsDppo reproduces the Sec. 10.1 looping ablation.
func BenchmarkSdppoVsDppo(b *testing.B) {
	graphs := systems.Table1Systems()
	if testing.Short() {
		graphs = graphs[:4]
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SdppoVsDppo(graphs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSatrec reproduces the Sec. 11 satellite-receiver comparison.
func BenchmarkSatrec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.Satrec()
		if err != nil {
			b.Fatal(err)
		}
		if cmp.Shared >= cmp.NonShared {
			b.Fatal("no sharing benefit on satrec")
		}
	}
}

// BenchmarkCDDAT reproduces the Sec. 11.1.3 input-buffering comparison.
func BenchmarkCDDAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CDDAT()
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].InputBuffer >= rows[0].InputBuffer {
			b.Fatal("nested schedule lost its input-buffering advantage")
		}
	}
}

// ---- Component micro-benchmarks ----

func benchGraph(n int) *sdf.Graph {
	return randsdf.Graph(rand.New(rand.NewSource(int64(n))), randsdf.Config{Actors: n})
}

func BenchmarkRepetitions(b *testing.B) {
	g := systems.TwoSidedFilterbank(5, systems.Ratio235)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Repetitions(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPGAN(b *testing.B) {
	g := systems.TwoSidedFilterbank(4, systems.Ratio12)
	q, _ := g.Repetitions()
	for i := 0; i < b.N; i++ {
		if _, err := apgan.Run(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPMC(b *testing.B) {
	g := systems.TwoSidedFilterbank(4, systems.Ratio12)
	q, _ := g.Repetitions()
	for i := 0; i < b.N; i++ {
		if _, err := rpmc.Order(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPPO(b *testing.B) {
	for _, n := range []int{20, 50, 100, 188} {
		b.Run(benchName("n", n), func(b *testing.B) {
			g := benchGraph(n)
			q, _ := g.Repetitions()
			order, _ := g.TopologicalSort(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := looping.DPPO(g, q, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSDPPO(b *testing.B) {
	for _, n := range []int{20, 50, 100, 188} {
		b.Run(benchName("n", n), func(b *testing.B) {
			g := benchGraph(n)
			q, _ := g.Repetitions()
			order, _ := g.TopologicalSort(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := looping.SDPPO(g, q, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChainSDPPO(b *testing.B) {
	g := systems.CDDAT()
	q, _ := g.Repetitions()
	order, _ := g.TopologicalSort(q)
	for i := 0; i < b.N; i++ {
		if _, err := looping.ChainSDPPO(g, q, order); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLifetimeExtraction(b *testing.B) {
	g := systems.TwoSidedFilterbank(5, systems.Ratio12)
	res, err := core.Compile(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := res.Repetitions
	tree, err := schedtree.FromSchedule(res.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Lifetimes(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstFit(b *testing.B) {
	g := systems.TwoSidedFilterbank(5, systems.Ratio12)
	res, err := core.Compile(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alloc.Allocate(res.Intervals, strat)
			}
		})
	}
}

func BenchmarkSimulatorVerify(b *testing.B) {
	g := systems.SatelliteReceiver()
	res, err := core.Compile(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Run(res.Schedule, res.Intervals, res.Best, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleTree(b *testing.B) {
	g := systems.TwoSidedFilterbank(5, systems.Ratio12)
	res, err := core.Compile(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedtree.FromSchedule(res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkDynamicVsStatic reproduces the Sec. 11.1.3 static-vs-dynamic
// scheduling comparison.
func BenchmarkDynamicVsStatic(b *testing.B) {
	graphs := systems.Table1Systems()
	if testing.Short() {
		graphs = graphs[:4]
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DynamicVsStatic(graphs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.GreedyBufMem < r.AllSchedulesBound {
				b.Fatalf("%s: greedy below theoretical bound", r.System)
			}
		}
	}
}

// BenchmarkMerging reproduces the Sec. 12 buffer-merging ablation.
func BenchmarkMerging(b *testing.B) {
	graphs := systems.Table1Systems()
	if testing.Short() {
		graphs = graphs[:4]
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Merging(graphs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SharedMerged > r.SharedBase {
				b.Fatalf("%s: merging regressed", r.System)
			}
		}
	}
}

// BenchmarkGreedyScheduler times the demand-driven scheduler alone.
func BenchmarkGreedyScheduler(b *testing.B) {
	g := systems.SatelliteReceiver()
	q, _ := g.Repetitions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dynsched.Schedule(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalLooping times the Sec. 12 loop-compaction DP on the
// collapsed FIR schedule.
func BenchmarkOptimalLooping(b *testing.B) {
	g := regularity.FIR(32)
	q, _ := g.Repetitions()
	order, _ := g.TopologicalSort(q)
	s := sched.FlatSAS(g, q, order)
	var names []string
	s.ForEachFiring(func(a sdf.ActorID) bool {
		names = append(names, g.Actor(a).Name)
		return true
	})
	labels := regularity.CollapseLabels(names)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		term := regularity.OptimalLooping(labels, 1)
		if term.Size(1) >= len(labels) {
			b.Fatal("no compression")
		}
	}
}

// BenchmarkTradeoff regenerates the code-size vs buffer-memory frontier.
func BenchmarkTradeoff(b *testing.B) {
	graphs := systems.Table1Systems()
	if testing.Short() {
		graphs = graphs[:4]
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Tradeoff(graphs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SharedBuf > r.NestedBuf {
				b.Fatalf("%s: sharing regressed", r.System)
			}
		}
	}
}

// multirateBenchSystems are the Table 1 systems whose periods contain far
// more firings than schedule nodes — the regime the loop-aware simulator is
// built for (the acceptance target is ≥5x over firing expansion here).
func multirateBenchSystems() []*sdf.Graph {
	return []*sdf.Graph{
		systems.SatelliteReceiver(),
		systems.TwoSidedFilterbank(5, systems.Ratio235),
		systems.PhasedArray(),
		systems.CDDAT(),
	}
}

// BenchmarkMaxTokensLoopAware times the loop-aware max_tokens/bufmem
// recursion on the compiled SDPPO schedules of the multirate systems.
func BenchmarkMaxTokensLoopAware(b *testing.B) {
	for _, g := range multirateBenchSystems() {
		res, err := core.Compile(g, core.Options{Strategy: core.APGAN, Looping: core.SDPPOLoops})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(g.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := res.Schedule.SimulateLoopAware(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxTokensFiring times the firing-expansion reference oracle on
// the same schedules, for direct comparison with the loop-aware path.
func BenchmarkMaxTokensFiring(b *testing.B) {
	for _, g := range multirateBenchSystems() {
		res, err := core.Compile(g, core.Options{Strategy: core.APGAN, Looping: core.SDPPOLoops})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(g.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := res.Schedule.SimulateByExpansion(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactStudy regenerates the heuristics-vs-exhaustive-optimum
// comparison on small graphs.
func BenchmarkExactStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExactStudy(
			[]*sdf.Graph{systems.OverAddFFT()}, 8, 50_000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.APGANNS < r.ExactNS {
				b.Fatal("heuristic beat the exact optimum")
			}
		}
	}
}
