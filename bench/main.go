// Command bench is the repository's end-to-end benchmark: one command that
// measures compile, edit, serve and run workloads from outside, through the
// repository's public entry points, checks every output for correctness, and
// prints every metric by name with its unit.
//
// Usage:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace]
//	bash bench/run.sh -compare A.json B.json [C.json ...]
//
// run.sh builds this package and cmd/sdfd from source, then runs the built
// binary from the repository root. Without -workload every workload runs in
// turn. Each run ends its standard output with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// An untraced run reports the end-to-end metrics of BENCHMARK.json; a -trace
// run reports its per-layer metrics instead. README.md is the glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one workload run's settings.
type config struct {
	seed    int64
	seconds float64 // measured time, set-up excluded
	trace   bool
	// short selects small inputs and rates (the smoke test).
	short bool
	// sdfd is a built daemon binary for sdfd-mix; empty serves the same
	// workload from an in-process server.
	sdfd string
	// traceDir receives spans.jsonl and layers.json of a traced run; empty
	// keeps spans in memory only.
	traceDir string
}

func (c config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workload is one named set of inputs and the loop that drives them.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*result, error)
}

// workloads lists every workload in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{"compile-cold", runCompileCold},
		{"edit-store", runEditStore},
		{"sdfd-mix", runSdfdMix},
		{"exec-seq", runExecSeq},
		{"exec-parallel", runExecParallel},
	}
}

// normalizeArgs rewrites "-trace 0" and "-trace 1" (with one or two dashes)
// into "-trace=0" / "-trace=1", so callers that pass every flag as a
// name-value pair work alongside the bare boolean "-trace".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty runs every workload)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 8, "measured seconds per workload run")
	trace := fs.Bool("trace", false, "report per-layer metrics from a traced run instead of end-to-end metrics")
	short := fs.Bool("short", false, "small inputs and rates (smoke test)")
	sdfd := fs.String("sdfd", "", "built sdfd binary for sdfd-mix (empty serves it in process)")
	traceDir := fs.String("tracedir", "", "directory for spans.jsonl and layers.json of traced runs")
	out := fs.String("out", "", "append each run's record to this results file")
	compare := fs.Bool("compare", false, "compare results files: -compare A.json B.json [C.json ...]")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var selected []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, short: *short, sdfd: *sdfd, traceDir: *traceDir}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	status := 0
	for _, w := range selected {
		fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %t\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
		res, err := w.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.workload, res.seed, res.trace, res.seconds = w.name, cfg.seed, cfg.trace, cfg.seconds
		res.print(stdout)
		if *out != "" {
			if err := appendRecord(*out, res.record()); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !res.correct() {
			fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed\n", w.name, res.failed, res.attempted)
			status = 1
		}
	}
	return status
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	workload  string
	seed      int64
	trace     bool
	seconds   float64
	attempted int64
	failed    int64
	// metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	metrics map[string]metric
	// detail holds workload-specific readings that are not gated by
	// BENCHMARK.json: per-graph and per-system times, exact memory and code
	// sizes, allocation per op.
	detail map[string]metric
}

func newResult(trace bool) *result {
	r := &result{metrics: map[string]metric{}, detail: map[string]metric{}}
	if trace {
		// Every per-layer metric is reported by every traced run: a layer
		// the workload does not exercise reads 0.
		for _, d := range layerMetrics {
			r.metrics[d.name] = metric{0, d.unit}
		}
	}
	return r
}

// set records a metric declared in e2eMetrics or layerMetrics.
func (r *result) set(name string, v float64) {
	r.metrics[name] = metric{v, unitOf(name)}
}

// note records a detail reading.
func (r *result) note(name string, v float64, unit string) {
	r.detail[name] = metric{v, unit}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes every detail and metric as a readable line, then the result
// line: one JSON object with exactly correct, attempted, failed and metrics.
func (r *result) print(w io.Writer) {
	for _, group := range []struct {
		tag string
		m   map[string]metric
	}{{"detail", r.detail}, {"metric", r.metrics}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group.m[n]
			fmt.Fprintf(w, "%s %-32s %14.6g %s\n", group.tag, n, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		// Only float64s, strings and ints: Marshal fails only on NaN/Inf,
		// which a correct reduction never yields.
		panic(fmt.Sprintf("bench: marshal result: %v", err))
	}
	fmt.Fprintln(w, string(line))
}

// repeatSetup runs setup n times, tearing down all but the last, and returns
// the last state with the median set-up time in seconds. Repeating the
// set-up makes setup_s a median like every other metric.
func repeatSetup[T any](n int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var (
		state    T
		teardown func()
		secs     []float64
	)
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		s, td, err := setup()
		if err != nil {
			var zero T
			return zero, nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		state, teardown = s, td
	}
	return state, teardown, median(secs), nil
}

// setupCount is how many times a run sets up: five times for setup_s's
// median in an untraced run, once in a traced run (which reports no
// setup_s), twice at smoke-test size.
func setupCount(cfg config) int {
	switch {
	case cfg.trace:
		return 1
	case cfg.short:
		return 2
	default:
		return 5
	}
}

// phase returns the measured duration of one of n equal phases of a traced
// run (an untraced reference phase, then the traced phase, ...).
func (c config) phase(n int) time.Duration {
	return c.measure() / time.Duration(n)
}
