package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one reported metric and its unit. BENCHMARK.json lists
// the same names and units; the smoke test checks the two agree.
type metricDef struct {
	name, unit string
}

// e2eMetrics are reported by every untraced run of every workload. What one
// "op" is differs per workload (README.md): a compile, a recompile, a
// request, or one schedule period.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
}

// probedKinds are the sequential pass kinds compile-cold's traced run times
// one call at a time; a fifth family, assemble, is what core.Compile spends
// beyond them.
var probedKinds = []string{"repetitions", "order", "schedule", "lifetimes", "alloc"}

// layerMetrics are reported by every traced run of every workload; a layer a
// workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sdfio.parse.us", "us"},
		{"sdfio.parse.share", "ratio"},
	}
	for _, k := range append(probedKinds, "assemble") {
		defs = append(defs,
			metricDef{"pass." + k + ".us", "us"},
			metricDef{"pass." + k + ".share", "ratio"},
			metricDef{"pass." + k + ".allocs", "count"},
			metricDef{"pass." + k + ".kb", "KiB"})
	}
	return append(defs, []metricDef{
		{"pass.partition.us", "us"},
		{"pass.segalloc.us", "us"},
		{"pass.plan.us", "us"},
		{"pass.plan.share", "ratio"},
		{"pass.executed_per_op", "count"},
		{"pass.loaded_per_op", "count"},
		{"sched.simulate_regret", "ratio"},
		{"service.encode.us", "us"},
		{"service.encode.share", "ratio"},
		{"service.framing_us", "us"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.pipeline_runs_per_kreq", "count"},
		{"service.shed_frac", "ratio"},
		{"sdfd.cold_p50_ms", "ms"},
		{"sdfd.warm_p50_ms", "ms"},
		{"sdfd.edit_p50_ms", "ms"},
		{"sdfd.grid_p50_ms", "ms"},
		{"sdfd.request_p99_ms", "ms"},
		{"sdfd.knee_rps", "1/s"},
		{"nodestore.get.us", "us"},
		{"nodestore.get.share", "ratio"},
		{"nodestore.put.us", "us"},
		{"nodestore.put.share", "ratio"},
		{"nodestore.hit_ratio", "ratio"},
		{"nodestore.read_kb", "KiB"},
		{"nodestore.write_kb", "KiB"},
		{"edit.rename_p50_ms", "ms"},
		{"edit.words_p50_ms", "ms"},
		{"edit.delay_p50_ms", "ms"},
		{"partition.phases", "count"},
		{"partition.imbalance", "ratio"},
		{"partition.mem_ratio_max", "ratio"},
		{"partition.shared_cells_frac", "ratio"},
		{"runtime.fire_share_p1", "ratio"},
		{"runtime.fire_share_p2", "ratio"},
		{"runtime.worker_skew_p2", "ratio"},
		{"runtime.overhead_us_p2", "us"},
		{"codegen.c.us", "us"},
		{"codegen.threaded_c.us", "us"},
		{"load.gen_late_p99_ms", "ms"},
		{"mem_words", "words"},
		{"par_mem_ratio", "ratio"},
		{"code_kb", "KiB"},
		{"alloc_kb_per_op", "KiB"},
		{"trace.coverage", "ratio"},
		{"trace.overhead", "ratio"},
	}...)
}()

// exactMetrics are deterministic sizes: two runs of the same code must read
// them identically, so -compare allows them no bound at all.
var exactMetrics = []string{"mem_words", "par_mem_ratio", "code_kb"}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not declared", name))
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opTimes collects op durations in milliseconds, optionally by class (a
// corpus graph, a system, an edit or request kind).
type opTimes struct {
	all     []float64
	byClass map[string][]float64
	total   time.Duration
}

func newOpTimes() *opTimes { return &opTimes{byClass: map[string][]float64{}} }

func (o *opTimes) add(class string, d time.Duration) {
	o.all = append(o.all, ms(d))
	o.byClass[class] = append(o.byClass[class], ms(d))
	o.total += d
}

func (o *opTimes) n() int { return len(o.all) }

// classMedians returns each class's median in class-name order.
func (o *opTimes) classMedians() (names []string, meds []float64) {
	for c := range o.byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		meds = append(meds, median(o.byClass[c]))
	}
	return names, meds
}

// gmeanOf is the geometric mean over classes of each class's q-quantile:
// every graph or system weighs the same however long it takes.
func (o *opTimes) gmeanOf(q float64) float64 {
	var qs []float64
	for _, xs := range o.byClass {
		qs = append(qs, quantile(xs, q))
	}
	sort.Float64s(qs)
	return geomean(qs)
}

// opsPerSecond is ops completed per second of op time.
func (o *opTimes) opsPerSecond() float64 {
	return ratio(float64(o.n()), o.total.Seconds())
}

// callTime returns the median microseconds of f over about 5 ms (3 to 100
// calls).
func callTime(f func()) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || (len(ds) < 100 && time.Since(start) < 5*time.Millisecond) {
		t0 := time.Now()
		f()
		ds = append(ds, us(time.Since(t0)))
	}
	return median(ds)
}

// allocs is a heap allocation count; differences of counts may be negative.
type allocs struct{ bytes, objects int64 }

// readAllocs returns the heap bytes and objects this process has allocated
// so far. runtime.ReadMemStats stops the world, but it flushes every
// per-P cache first, so unlike runtime/metrics it is exact even around a
// single short pass call; it is only called outside timed op spans.
func readAllocs() allocs {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocs{int64(m.TotalAlloc), int64(m.Mallocs)}
}

func (a allocs) since(b allocs) allocs { return allocs{a.bytes - b.bytes, a.objects - b.objects} }

func (a allocs) plus(b allocs) allocs { return allocs{a.bytes + b.bytes, a.objects + b.objects} }

// kbPer is kibibytes allocated per op.
func (a allocs) kbPer(ops int) float64 { return ratio(float64(a.bytes)/1024, float64(ops)) }
