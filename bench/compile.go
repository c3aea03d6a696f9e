package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sched"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/service"
	"repro/internal/systems"
)

// serviceDefaults is the library configuration the service compiles with
// when a request leaves every option unset. It is not the zero core.Options,
// whose ordering strategy is APGAN.
var serviceDefaults = core.Options{Strategy: core.RPMC}

// randLadder fixes the actor counts of compile-cold's random graphs: the
// seed draws each graph's structure but not its size, because compile time
// grows with the square of the actor count and seed-drawn sizes would move
// the geometric mean by more than its bound from one seed to the next.
var randLadder = []int{20, 39, 57, 76, 94, 113, 131, 150}

// compileQ is the per-graph quantile behind compile-cold's op_ms. On a
// shared two-core host each graph's compile times fall into two modes about
// 1.4x apart, and the share of the slow mode changes from run to run with the
// host's load: the median sits between the modes and moved by up to 40%
// across ten seeded runs, where the 10th percentile, inside the fast mode,
// moved by 6-20%.
const compileQ = 0.10

// corpusGraph is one compile-cold input.
type corpusGraph struct {
	name   string
	text   string // canonical .sdf text: what a user hands the compiler
	table1 bool
	// ref is the artifact of the untimed warm-up compile; every timed
	// repeat must reproduce it byte for byte.
	ref []byte
}

// corpus is compile-cold's input set plus the normalized default options
// the service applies, read back from an artifact.
type corpus struct {
	graphs []*corpusGraph
	opts   service.CompileOptions
}

// buildCorpus generates the corpus from the seed — the sixteen Table-1
// systems plus one random graph per randLadder size — and compiles each
// graph once, which also warms every lazily initialised path.
func buildCorpus(seed int64, short bool) (*corpus, error) {
	graphs := systems.Table1Systems()
	ladder := randLadder
	if short {
		graphs = []*sdf.Graph{systems.SatelliteReceiver(), systems.OverAddFFT(), systems.Modem16QAM()}
		ladder = []int{20, 30}
	}
	nTable1 := len(graphs)
	rng := rand.New(rand.NewSource(seed))
	for _, n := range ladder {
		graphs = append(graphs, randsdf.Graph(rng, randsdf.Config{Actors: n}))
	}
	opts, err := defaultOptions()
	if err != nil {
		return nil, err
	}
	c := &corpus{opts: opts}
	for i, g := range graphs {
		text, err := sdfio.CanonicalString(g)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", g.Name, err)
		}
		cg := &corpusGraph{name: g.Name, text: text, table1: i < nTable1}
		if cg.ref, _, err = compileText(text); err != nil {
			return nil, fmt.Errorf("corpus %s: %w", g.Name, err)
		}
		c.graphs = append(c.graphs, cg)
	}
	return c, nil
}

// compileText is one compile-cold op: .sdf text in, artifact bytes out.
func compileText(text string) ([]byte, *core.Result, error) {
	g, err := sdfio.Parse(strings.NewReader(text))
	if err != nil {
		return nil, nil, err
	}
	return service.CompileArtifact(g, service.CompileOptions{})
}

// compileState is what one pass loop over the corpus observed.
type compileState struct {
	times  *opTimes
	last   []*core.Result // each graph's most recent result
	failed int64
	allocs allocs
}

// compileLoop compiles the corpus in seed-shuffled passes until d has
// elapsed, always finishing the current pass so every graph is measured the
// same number of times. op, when non-nil, replaces the plain compile (the
// traced variant); it returns the artifact and result of graph i.
func compileLoop(ctx context.Context, c *corpus, rng *rand.Rand, d time.Duration,
	op func(i int, id int64) ([]byte, *core.Result, time.Duration, error)) (*compileState, error) {
	st := &compileState{times: newOpTimes(), last: make([]*core.Result, len(c.graphs))}
	order := make([]int, len(c.graphs))
	for i := range order {
		order[i] = i
	}
	a0 := readAllocs()
	var opID int64
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			var (
				data    []byte
				res     *core.Result
				elapsed time.Duration
				err     error
			)
			if op != nil {
				data, res, elapsed, err = op(i, opID)
			} else {
				t0 := time.Now()
				data, res, err = compileText(c.graphs[i].text)
				elapsed = time.Since(t0)
			}
			opID++
			if err != nil {
				return nil, fmt.Errorf("compiling %s: %w", c.graphs[i].name, err)
			}
			st.times.add(c.graphs[i].name, elapsed)
			st.last[i] = res
			if !bytes.Equal(data, c.graphs[i].ref) {
				st.failed++
			}
		}
	}
	st.allocs = readAllocs().since(a0)
	return st, nil
}

// checkCorpus runs the stage-by-stage invariant oracle over each graph's
// last result and returns how many graphs fail it.
func checkCorpus(st *compileState) int64 {
	var bad int64
	for _, res := range st.last {
		if res == nil || check.Pipeline(res, check.Options{}) != nil {
			bad++
		}
	}
	return bad
}

// memWords sums the best shared-image size over the Table-1 systems: the
// paper's Table 1 quantity.
func memWords(c *corpus, st *compileState) float64 {
	var words int64
	for i, g := range c.graphs {
		if g.table1 && st.last[i] != nil {
			words += st.last[i].Metrics.SharedTotal
		}
	}
	return float64(words)
}

func runCompileCold(ctx context.Context, cfg config) (*result, error) {
	c, teardown, setup, err := repeatSetup(setupCount(cfg), func() (*corpus, func(), error) {
		c, err := buildCorpus(cfg.seed, cfg.short)
		return c, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	res := newResult(cfg.trace)
	if cfg.trace {
		return res, traceCompileCold(ctx, cfg, c, rng, res)
	}

	st, err := compileLoop(ctx, c, rng, cfg.measure(), nil)
	if err != nil {
		return nil, err
	}
	res.attempted = int64(st.times.n())
	res.failed = st.failed + checkCorpus(st)
	res.set("setup_s", setup)
	res.set("op_ms", st.times.gmeanOf(compileQ))
	res.note("compile_gmean_p50_ms", st.times.gmeanOf(0.5), "ms")
	res.note("compile_p99_ms", quantile(st.times.all, 0.99), "ms")
	res.note("ops_per_s", st.times.opsPerSecond(), "1/s")
	names, meds := st.times.classMedians()
	for i, n := range names {
		res.note("graph."+n+"_p50_ms", meds[i], "ms")
	}
	res.note("mem_words", memWords(c, st), "words")
	res.note("alloc_kb_per_op", st.allocs.kbPer(st.times.n()), "KiB")
	return res, nil
}

// traceCompileCold measures half the time untraced, then half traced. A
// traced op is sdfio.Parse, core.Compile and service.ArtifactBytes, each in
// its own span under the op's root span. After the op, a probe runs the
// sequential passes one by one on the same graph (pass.Run*, outside the
// op's root), so each pass kind gets its own time and allocation count;
// assemble is the remainder of core.Compile.
func traceCompileCold(ctx context.Context, cfg config, c *corpus, rng *rand.Rand, res *result) error {
	base, err := compileLoop(ctx, c, rng, cfg.phase(2), nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	passAllocs := map[string]allocs{}
	traced, err := compileLoop(ctx, c, rng, cfg.phase(2), func(i int, op int64) ([]byte, *core.Result, time.Duration, error) {
		root := tr.begin(op, 0, "op")
		id := tr.begin(op, root, "sdfio.parse")
		g, err := sdfio.Parse(strings.NewReader(c.graphs[i].text))
		tr.end(id)
		if err != nil {
			return nil, nil, 0, err
		}
		id = tr.begin(op, root, "core.compile")
		r, err := core.Compile(g, serviceDefaults)
		tr.end(id)
		if err != nil {
			return nil, nil, 0, err
		}
		id = tr.begin(op, root, "service.encode")
		data, err := service.ArtifactBytes(r, c.opts)
		tr.end(id)
		elapsed := tr.end(root)
		if err != nil {
			return nil, nil, 0, err
		}
		return data, r, elapsed, probePasses(tr, op, g, passAllocs)
	})
	if err != nil {
		return err
	}
	res.attempted = int64(base.times.n() + traced.times.n())
	res.failed = base.failed + traced.failed + checkCorpus(traced)

	sum := tr.summary()
	ops := float64(traced.times.n())
	opTime := sum.get("op").dur
	layer := func(prefix string, d time.Duration) {
		res.set(prefix+".us", us(d)/ops)
		res.set(prefix+".share", ratio(float64(d), float64(opTime)))
	}
	layer("sdfio.parse", sum.get("sdfio.parse").self)
	layer("service.encode", sum.get("service.encode").self)
	assemble := sum.get("core.compile").self
	for _, k := range probedKinds {
		d := sum.get("pass." + k).dur
		assemble -= d
		layer("pass."+k, d)
	}
	layer("pass.assemble", assemble)
	for _, k := range append(probedKinds, "assemble") {
		res.set("pass."+k+".allocs", float64(passAllocs[k].objects)/ops)
		res.set("pass."+k+".kb", passAllocs[k].kbPer(int(ops)))
	}

	regret, err := simulateRegret(traced.last)
	if err != nil {
		return err
	}
	res.set("sched.simulate_regret", regret)
	res.set("mem_words", memWords(c, traced))
	res.set("alloc_kb_per_op", base.allocs.kbPer(base.times.n()))
	res.set("trace.coverage", sum.coverage())
	res.set("trace.overhead", ratio(traced.times.gmeanOf(compileQ), base.times.gmeanOf(compileQ)))
	return tr.write(cfg.traceDir, "compile-cold", res.metrics)
}

// probePasses runs serviceDefaults' sequential passes (RPMC order, SDPPO
// looping, the ffdur and ffstart allocators) one at a time, each in a root
// span named after its kind, then core.Compile once more. It adds each
// kind's allocations to acc, and to acc["assemble"] what core.Compile
// allocates beyond the passes.
func probePasses(tr *tracer, op int64, g *sdf.Graph, acc map[string]allocs) error {
	var passes allocs
	step := func(kind string, f func() error) error {
		a0 := readAllocs()
		id := tr.begin(op, 0, "pass."+kind)
		err := f()
		tr.end(id)
		a := readAllocs().since(a0)
		acc[kind] = acc[kind].plus(a)
		passes = passes.plus(a)
		return err
	}
	var (
		rep pass.Repetitions
		ord pass.Order
		ls  pass.LoopedSchedule
		lf  pass.Lifetimes
	)
	steps := []struct {
		kind string
		f    func() (err error)
	}{
		{"repetitions", func() (err error) { rep, err = pass.RunRepetitions(g); return }},
		{"order", func() (err error) { ord, err = pass.RunOrder(g, rep, pass.RPMC, nil); return }},
		{"schedule", func() (err error) { ls, err = pass.RunSchedule(g, rep, ord, pass.SDPPOLoops); return }},
		{"lifetimes", func() (err error) { lf, err = pass.RunLifetimes(rep, ls); return }},
		{"alloc", func() error {
			for _, s := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart} {
				if _, err := pass.RunAlloc(lf, s); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := step(s.kind, s.f); err != nil {
			return fmt.Errorf("probe %s: %w", s.kind, err)
		}
	}
	a0 := readAllocs()
	if _, err := core.Compile(g, serviceDefaults); err != nil {
		return err
	}
	acc["assemble"] = acc["assemble"].plus(readAllocs().since(a0).since(passes))
	return nil
}

// simulateRegret is the geometric mean, over the corpus schedules, of the
// time sched's Simulate dispatcher takes divided by the faster of its two
// arms: 1 when the dispatcher always picks the faster arm.
func simulateRegret(results []*core.Result) (float64, error) {
	var regrets []float64
	for _, r := range results {
		s := r.Schedule
		var times [3]float64
		for i, f := range []func() (*sched.SimResult, error){s.Simulate, s.SimulateLoopAware, s.SimulateByExpansion} {
			var err error
			times[i] = callTime(func() { _, err = f() })
			if err != nil {
				return 0, fmt.Errorf("simulating %s: %w", r.Graph.Name, err)
			}
		}
		regrets = append(regrets, times[0]/min(times[1], times[2]))
	}
	return geomean(regrets), nil
}
