package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// record is one workload run as stored in a results file.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]metric `json:"detail,omitempty"`
}

// resultsFile is a set of runs made with one build on one machine: a point
// of the benchmark's trajectory.
type resultsFile struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	NProc     int      `json:"nproc"`
	Runs      []record `json:"runs"`
}

func (r *result) record() record {
	return record{
		Workload: r.workload, Seed: r.seed, Trace: r.trace, Seconds: r.seconds,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: r.metrics, Detail: r.detail,
	}
}

// appendRecord adds rec to the results file at path, creating the file
// (stamped with today's date, the Go version and the CPU count) if needed.
func appendRecord(path string, rec record) error {
	f := resultsFile{Date: time.Now().Format("2006-01-02"), GoVersion: runtime.Version(), NProc: runtime.NumCPU()}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("results %s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("results: %w", err)
	}
	f.Runs = append(f.Runs, rec)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return nil
}

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory, or its parent when run from inside bench/.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed like Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so spreads read the same as in an external check.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// verdict compares the change's values b with the baseline's a for a metric
// whose better direction is "lower" or "higher".
//
//   - unresolved: either side's quartile spread, as a share of its median,
//     exceeds the bound, unless every run of b beats every run of a;
//   - worse: b's median is worse than a's by more than the bound;
//   - better: b's median is better by more than both the bound and a's own
//     spread, and nine in ten runs of b beat a's median. Two results files
//     are not paired runs, so a drift of the host between them can look like
//     a gain up to the bound the benchmark was set to tolerate;
//   - unchanged: otherwise.
func verdict(a, b []float64, better string, bound float64) string {
	qa, qb := quartiles(a), quartiles(b)
	worse := func(x, y float64) bool { // x is worse than y
		if better == "higher" {
			return x < y
		}
		return x > y
	}
	change := ratio(qb[1]-qa[1], qa[1])
	if better == "higher" {
		change = -change
	}
	spreadA := ratio(qa[2]-qa[0], qa[1])
	spreadB := ratio(qb[2]-qb[0], qb[1])
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !worse(y, x) {
				allBetter = false
			}
		}
	}
	if max(spreadA, spreadB) > bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if change > bound {
		return "worse"
	}
	wins := 0
	for _, x := range b {
		if worse(qa[1], x) {
			wins++
		}
	}
	if -change > max(bound, spreadA) && 10*wins >= 9*len(b) {
		return "better"
	}
	return "unchanged"
}

// runCompare prints, per workload and end-to-end metric, each file's median
// and quartiles and each later file's verdict against the first, then the
// same for the exact sizes in the runs' details. It exits 3 if any verdict
// is "worse".
func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) < 2 {
		fmt.Fprintln(stderr, "bench: -compare needs at least two results files")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: reading BENCHMARK.json: %v\n", err)
		return 2
	}
	files := make([]resultsFile, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	// values returns one file's untraced readings of a metric on a workload.
	values := func(f resultsFile, workload, name string, detail bool) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			m := r.Metrics
			if detail {
				m = r.Detail
			}
			if v, ok := m[name]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	type row struct {
		name, better string
		bound        float64
		detail       bool
	}
	var rows []row
	for _, m := range sp.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, m.Bound, false})
	}
	for _, name := range exactMetrics {
		rows = append(rows, row{name, "lower", 0, true})
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-14s %-32s %-32s %s\n", "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "verdict")
	for _, w := range sp.Workloads {
		for _, r := range rows {
			a := values(files[0], w.Name, r.name, r.detail)
			if len(a) == 0 {
				continue
			}
			for i := 1; i < len(files); i++ {
				b := values(files[i], w.Name, r.name, r.detail)
				if len(b) == 0 {
					fmt.Fprintf(stdout, "%-14s %-14s missing in %s\n", w.Name, r.name, paths[i])
					status = max(status, 1)
					continue
				}
				v := verdict(a, b, r.better, r.bound)
				qa, qb := quartiles(a), quartiles(b)
				fmt.Fprintf(stdout, "%-14s %-14s %-32s %-32s %s\n", w.Name, r.name,
					fmt.Sprintf("%.5g [%.5g %.5g]", qa[1], qa[0], qa[2]),
					fmt.Sprintf("%.5g [%.5g %.5g]", qb[1], qb[0], qb[2]), v)
				if v == "worse" {
					status = 3
				}
			}
		}
	}
	return status
}
