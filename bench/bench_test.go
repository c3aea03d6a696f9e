package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestWorkloadsReportEveryMetric runs every workload at smoke-test size, in
// process, untraced and traced, and checks each run is correct and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads()))
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		layers[m.Name] = m.Unit
	}
	t.Setenv("TMPDIR", t.TempDir())
	for i, w := range workloads() {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, sp.Workloads[i].Name, w.name)
		}
		for _, traced := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.4", "--trace", traced, "-short"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.name, traced, code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct %t, %d of %d failed", w.name, traced, r.Correct, r.Failed, r.Attempted)
			}
			want := e2e
			if traced == "1" {
				want = layers
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
				if traced == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if traced == "1" && (w.name == "compile-cold" || w.name == "edit-store") {
				if c := r.Metrics["trace.coverage"].Value; c < 0.9 || c > 1.1 {
					t.Errorf("%s: trace.coverage %.3f outside [0.9, 1.1]", w.name, c)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts checks -compare's verdicts and exit codes on results
// files it writes itself.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, words float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			v := scale * (1 + float64(i)/100)
			rec := record{
				Workload: "compile-cold", Seed: int64(i), Correct: true, Attempted: 1,
				Metrics: map[string]metric{"op_ms": {v, "ms"}, "setup_s": {v / 10, "s"}},
				Detail:  map[string]metric{"mem_words": {words, "words"}},
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.json", 1, 100)
	for _, c := range []struct {
		name    string
		scale   float64
		words   float64
		code    int
		verdict string
	}{
		{"same.json", 1, 100, 0, "unchanged"},
		{"faster.json", 0.5, 100, 0, "better"},
		{"slower.json", 2, 100, 3, "worse"},
		{"bigger.json", 1, 101, 3, "worse"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write(c.name, c.scale, c.words)}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d with a %q verdict:\n%s%s", c.name, code, c.code, c.verdict, stdout.String(), stderr.String())
		}
	}
}

// TestVerdictUnresolvedWhenSpreadExceedsBound checks that a spread wider
// than the bound is never read as a change.
func TestVerdictUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	a := []float64{1, 1.5, 2, 2.5, 3}
	b := []float64{1.1, 1.6, 2.1, 2.6, 3.1}
	if v := verdict(a, b, "lower", 0.1); v != "unresolved" {
		t.Errorf("verdict = %s, want unresolved", v)
	}
}

// TestSummarySplitsOverlappingChildren pins the attribution of parallel
// children: the root [0,10) has children [0,6) and [2,8), so each child owns
// 4, the root keeps 2, and coverage is 0.8.
func TestSummarySplitsOverlappingChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 6},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 8},
	}}
	s := tr.summary()
	if a, b, op := s.get("a").self, s.get("b").self, s.get("op").self; a != 4 || b != 4 || op != 2 {
		t.Errorf("self times a=%d b=%d op=%d, want 4, 4, 2", a, b, op)
	}
	if c := s.coverage(); c != 0.8 {
		t.Errorf("coverage = %v, want 0.8", c)
	}
}
