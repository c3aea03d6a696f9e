package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/check"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/pass"
	"repro/internal/runtime"
	"repro/internal/sdf"
	"repro/internal/systems"
)

const (
	// execBurn is the arithmetic loop each firing runs on top of moving its
	// tokens (experiments.workFire's 256), so barrier and runtime overhead
	// are weighed against actor work the way a deployment sees them.
	execBurn = 256
	// execSegment is how many periods one engine runs before its observed
	// outputs are compared with the other engine's and it is rebuilt. The
	// systems carry no delays, so every buffer is empty at a period
	// boundary; the check compares what each actor consumed instead.
	execSegment = 16
)

// execSystems are the multirate systems the runtime executes.
func execSystems() []*sdf.Graph {
	return []*sdf.Graph{systems.SatelliteReceiver(), systems.CDDAT(), systems.PhasedArray()}
}

// actorState is one actor's observable history: its firings and an FNV-1a
// hash over the bits of every token it consumed, in order. Each actor fires
// on one worker; the padding keeps two actors' states off a shared cache
// line.
type actorState struct {
	firings int64
	hash    uint64
	fireNS  int64
	_       [104]byte
}

func newActorStates(n int) []actorState {
	s := make([]actorState, n)
	for i := range s {
		s[i].hash = 14695981039346656037
	}
	return s
}

// execFires builds the actor behaviours: sum the inputs plus a seeded
// per-actor offset, burn execBurn iterations, emit the result. With timed
// set each firing also adds its duration to its actor's fireNS.
func execFires(g *sdf.Graph, offsets []float64, states []actorState, timed bool) map[sdf.ActorID]runtime.Fire {
	fires := make(map[sdf.ActorID]runtime.Fire, g.NumActors())
	for _, a := range g.Actors() {
		st, off, outs := &states[a.ID], offsets[a.ID], g.Out(a.ID)
		fires[a.ID] = func(inputs [][]float64) [][]float64 {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			x, h := off, st.hash
			for _, in := range inputs {
				for _, v := range in {
					x += v
					h = (h ^ math.Float64bits(v)) * 1099511628211
				}
			}
			for k := 0; k < execBurn; k++ {
				x = x*1.0000001 + 0.5
			}
			out := make([][]float64, len(outs))
			for i, e := range outs {
				vals := make([]float64, g.Edge(e).Prod)
				for k := range vals {
					vals[k] = x + float64(k)
				}
				out[i] = vals
			}
			st.hash = h
			st.firings++
			if timed {
				st.fireNS += time.Since(t0).Nanoseconds()
			}
			return out
		}
	}
	return fires
}

// engine is what runtime.Engine and runtime.PhasedEngine have in common.
type engine interface {
	RunPeriod() error
	TokensOn(sdf.EdgeID) []float64
}

// execSystem is one system compiled both ways, with the outcome of one
// segment on the engine the workload does not time.
type execSystem struct {
	g       *sdf.Graph
	seq     *core.Result // sequential, P=1
	par     *core.Result // partitioned, P=2
	offsets []float64
	ref     []actorState
}

func (s *execSystem) engine(parallel bool, states []actorState, timed bool) (engine, error) {
	fires := execFires(s.g, s.offsets, states, timed)
	if parallel {
		return runtime.NewPhased(s.par, fires)
	}
	return runtime.New(s.seq, fires)
}

// sameOutcome compares what every actor consumed and what every edge holds.
func (s *execSystem) sameOutcome(e engine, states []actorState) bool {
	for i := range states {
		if states[i].firings != s.ref[i].firings || states[i].hash != s.ref[i].hash {
			return false
		}
	}
	for _, ed := range s.g.Edges() {
		if len(e.TokensOn(ed.ID)) != int(ed.Delay) {
			return false
		}
	}
	return true
}

// execSetup is an exec workload's compiled state.
type execSetup struct {
	parallel bool
	systems  []*execSystem
	// memRatios is each Table-1 system's P=2 segmented image over its
	// sequential shared image.
	memRatios []float64
	codeBytes int
}

func newExecSetup(seed int64, parallel, short bool) (*execSetup, error) {
	e := &execSetup{parallel: parallel}
	rng := rand.New(rand.NewSource(seed))
	for _, g := range execSystems() {
		s := &execSystem{g: g}
		var err error
		if s.seq, err = core.Compile(g, core.Options{}); err != nil {
			return nil, err
		}
		if s.par, err = core.Compile(g, core.Options{Partitions: 2}); err != nil {
			return nil, err
		}
		for range g.Actors() {
			s.offsets = append(s.offsets, rng.Float64())
		}
		// The reference segment runs on the other engine: P=1 for the
		// phased workload and P=2 for the sequential one.
		s.ref = newActorStates(g.NumActors())
		ref, err := s.engine(!parallel, s.ref, false)
		if err != nil {
			return nil, err
		}
		for p := 0; p < execSegment; p++ {
			if err := ref.RunPeriod(); err != nil {
				return nil, fmt.Errorf("%s reference period %d: %w", g.Name, p, err)
			}
		}
		e.codeBytes += len(codegen.GenerateC(s.seq)) + len(codegen.GenerateThreadedC(s.par))
		e.systems = append(e.systems, s)
	}
	table1 := systems.Table1Systems()
	if short {
		table1 = table1[:4]
	}
	for _, g := range table1 {
		seq, err := core.Compile(g, core.Options{})
		if err != nil {
			return nil, err
		}
		par, err := core.Compile(g, core.Options{Partitions: 2})
		if err != nil {
			return nil, err
		}
		e.memRatios = append(e.memRatios, float64(par.Segmented.Total)/float64(seq.Metrics.SharedTotal))
	}
	return e, nil
}

// execPeriod observes one traced period: its duration and, per worker, the
// time spent inside that worker's Fire calls.
type execPeriod struct {
	sys    int
	dur    time.Duration
	worker []time.Duration
}

// loop runs segments round-robin over the systems until d has elapsed, each
// period one op. trace, when non-nil, records every period.
func (e *execSetup) loop(ctx context.Context, d time.Duration, tr *tracer, trace *[]execPeriod) (*opTimes, allocs, int64, error) {
	times := newOpTimes()
	var failed, op int64
	a0 := readAllocs()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if err := ctx.Err(); err != nil {
			return nil, allocs{}, 0, err
		}
		for si, s := range e.systems {
			states := newActorStates(s.g.NumActors())
			eng, err := s.engine(e.parallel, states, tr != nil)
			if err != nil {
				return nil, allocs{}, 0, err
			}
			for p := 0; p < execSegment; p++ {
				var before []actorState
				var root, id int
				if tr != nil {
					before = append(before, states...)
					root = tr.begin(op, 0, "op")
					id = tr.begin(op, root, "runtime.run_period")
				}
				t0 := time.Now()
				err := eng.RunPeriod()
				elapsed := time.Since(t0)
				if tr != nil {
					tr.end(id)
					elapsed = tr.end(root)
					*trace = append(*trace, e.observe(si, elapsed, before, states))
				}
				op++
				if err != nil {
					return nil, allocs{}, 0, fmt.Errorf("%s period: %w", s.g.Name, err)
				}
				times.add(s.g.Name, elapsed)
			}
			if !s.sameOutcome(eng, states) {
				failed += execSegment
			}
		}
	}
	return times, readAllocs().since(a0), failed, nil
}

// observe attributes one period's fire time to workers: all of it to worker
// 0 on the sequential engine, by the partition's actor assignment on the
// phased one.
func (e *execSetup) observe(si int, dur time.Duration, before, after []actorState) execPeriod {
	s := e.systems[si]
	p := execPeriod{sys: si, dur: dur, worker: make([]time.Duration, 1)}
	if e.parallel {
		p.worker = make([]time.Duration, s.par.Partition.P)
	}
	for a := range after {
		w := 0
		if e.parallel {
			w = s.par.Partition.Assign[a]
		}
		p.worker[w] += time.Duration(after[a].fireNS - before[a].fireNS)
	}
	return p
}

// checkPhased runs the repository's phased-versus-sequential engine oracle
// on every system; it returns how many fail.
func (e *execSetup) checkPhased() int64 {
	var bad int64
	for _, s := range e.systems {
		if check.PhasedRuntime(s.par, check.Options{}) != nil {
			bad++
		}
	}
	return bad
}

func runExecSeq(ctx context.Context, cfg config) (*result, error) {
	return runExec(ctx, cfg, false)
}

func runExecParallel(ctx context.Context, cfg config) (*result, error) {
	return runExec(ctx, cfg, true)
}

func runExec(ctx context.Context, cfg config, parallel bool) (*result, error) {
	e, teardown, setup, err := repeatSetup(setupCount(cfg), func() (*execSetup, func(), error) {
		e, err := newExecSetup(cfg.seed, parallel, cfg.short)
		return e, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	res := newResult(cfg.trace)
	if cfg.trace {
		if err := traceExec(ctx, cfg, e, res); err != nil {
			return nil, err
		}
	} else {
		times, a, failed, err := e.loop(ctx, cfg.measure(), nil, nil)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = int64(times.n()), failed
		res.set("setup_s", setup)
		res.set("op_ms", times.gmeanOf(0.5))
		res.note("period_p99_ms", quantile(times.all, 0.99), "ms")
		res.note("ops_per_s", times.opsPerSecond(), "1/s")
		names, meds := times.classMedians()
		for i, n := range names {
			res.note("period."+n+"_us", 1000*meds[i], "us")
		}
		res.note("alloc_kb_per_op", a.kbPer(times.n()), "KiB")
		res.note("par_mem_ratio", geomean(e.memRatios), "ratio")
		res.note("code_kb", float64(e.codeBytes)/1024, "KiB")
	}
	res.failed += e.checkPhased()
	return res, nil
}

// traceExec measures half the time untraced, then half with every period a
// span and every firing timed, and adds the partition and code generation
// layers measured on the compiled systems.
func traceExec(ctx context.Context, cfg config, e *execSetup, res *result) error {
	base, a, failed, err := e.loop(ctx, cfg.phase(2), nil, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	var periods []execPeriod
	traced, _, tfailed, err := e.loop(ctx, cfg.phase(2), tr, &periods)
	if err != nil {
		return err
	}
	res.attempted = int64(base.n() + traced.n())
	res.failed = failed + tfailed

	workers := 1
	suffix := "p1"
	if e.parallel {
		workers, suffix = 2, "p2"
	}
	var fire, total time.Duration
	perWorker := make([][]time.Duration, len(e.systems))
	var overhead []float64
	for _, p := range periods {
		total += p.dur
		slowest := time.Duration(0)
		if perWorker[p.sys] == nil {
			perWorker[p.sys] = make([]time.Duration, len(p.worker))
		}
		for w, d := range p.worker {
			fire += d
			perWorker[p.sys][w] += d
			slowest = max(slowest, d)
		}
		overhead = append(overhead, us(p.dur-slowest))
	}
	res.set("runtime.fire_share_"+suffix, ratio(float64(fire), float64(workers)*float64(total)))
	if e.parallel {
		var skews []float64
		for _, ws := range perWorker {
			var sumW, maxW time.Duration
			for _, d := range ws {
				sumW += d
				maxW = max(maxW, d)
			}
			skews = append(skews, ratio(float64(maxW)*float64(len(ws)), float64(sumW)))
		}
		res.set("runtime.worker_skew_p2", geomean(skews))
		res.set("runtime.overhead_us_p2", median(overhead))
	}

	var phases, shared, cells float64
	var imbalance, partUS, segUS, cUS, thrUS []float64
	for _, s := range e.systems {
		part, seg := s.par.Partition, s.par.Segmented
		phases += float64(part.NumPhases)
		var sumL, maxL float64
		for _, l := range part.Load {
			sumL += float64(l)
			maxL = max(maxL, float64(l))
		}
		imbalance = append(imbalance, ratio(maxL*float64(len(part.Load)), sumL))
		shared += float64(seg.Segments[seg.SharedIndex()].Cells)
		cells += float64(seg.Total)
		pu, su, err := partitionCost(s.g)
		if err != nil {
			return err
		}
		partUS, segUS = append(partUS, pu), append(segUS, su)
		cUS = append(cUS, callTime(func() { codegen.GenerateC(s.seq) }))
		thrUS = append(thrUS, callTime(func() { codegen.GenerateThreadedC(s.par) }))
	}
	maxRatio := 0.0
	for _, r := range e.memRatios {
		maxRatio = max(maxRatio, r)
	}
	n := float64(len(e.systems))
	res.set("partition.phases", phases)
	res.set("partition.imbalance", geomean(imbalance))
	res.set("partition.mem_ratio_max", maxRatio)
	res.set("partition.shared_cells_frac", ratio(shared, cells))
	res.set("pass.partition.us", sum(partUS)/n)
	res.set("pass.segalloc.us", sum(segUS)/n)
	res.set("codegen.c.us", sum(cUS)/n)
	res.set("codegen.threaded_c.us", sum(thrUS)/n)
	res.set("par_mem_ratio", geomean(e.memRatios))
	res.set("code_kb", float64(e.codeBytes)/1024)
	res.set("alloc_kb_per_op", a.kbPer(base.n()))
	res.set("trace.coverage", tr.summary().coverage())
	res.set("trace.overhead", ratio(traced.gmeanOf(0.5), base.gmeanOf(0.5)))
	name := "exec-seq"
	if e.parallel {
		name = "exec-parallel"
	}
	return tr.write(cfg.traceDir, name, res.metrics)
}

// partitionCost returns the median microseconds of the P=2 partition and
// segmented-allocation passes on g under the default order.
func partitionCost(g *sdf.Graph) (float64, float64, error) {
	rep, err := pass.RunRepetitions(g)
	if err != nil {
		return 0, 0, err
	}
	ord, err := pass.RunOrder(g, rep, pass.RPMC, nil)
	if err != nil {
		return 0, 0, err
	}
	var part pass.Partition
	var perr, serr error
	pu := callTime(func() { part, perr = pass.RunPartition(g, rep, ord, 2) })
	if perr != nil {
		return 0, 0, perr
	}
	su := callTime(func() { _, serr = pass.RunSegAlloc(g, rep, part) })
	return pu, su, serr
}
