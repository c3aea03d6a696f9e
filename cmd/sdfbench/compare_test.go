package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/load"
)

func sampleLoadReport(latScale int64, kneeRPS float64) *load.Report {
	step := func(rps float64, p50, p99 int64) load.StepResult {
		var st load.StepResult
		st.TargetRPS = rps
		st.AchievedRPS = rps
		st.Sent, st.OK = 100, 100
		st.Latency.Count = 100
		st.Latency.P50, st.Latency.P90 = p50, (p50+p99)/2
		st.Latency.P99, st.Latency.P999, st.Latency.Max = p99, p99, p99
		return st
	}
	return &load.Report{
		Version: load.ReportVersion,
		Label:   "sample",
		Seed:    1,
		Workers: 8,
		Mix:     load.Mix{Cold: 1, Warm: 6, Edit: 2, Grid: 1},
		Steps: []load.StepResult{
			step(50, 2_000_000*latScale, 9_000_000*latScale),
			step(100, 3_000_000*latScale, 20_000_000*latScale),
		},
		Knee: load.Knee{RPS: kneeRPS, Saturated: false, Reason: "completed"},
	}
}

func writeJSON(t *testing.T, v any, name string) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestCompareNoRegression(t *testing.T) {
	oldPath := writeJSON(t, sampleLoadReport(1, 100), "old.json")
	newPath := writeJSON(t, sampleLoadReport(1, 100), "new.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 0 {
		t.Fatalf("identical reports: exit %d, want 0", code)
	}
	report := readFile(t, md)
	if !strings.Contains(report, "No regressions beyond 1.25x across 5 shared series") {
		t.Errorf("report missing the no-regression verdict over all 5 series:\n%s", report)
	}
	for _, series := range []string{"50 rps/p50", "50 rps/p99", "100 rps/p50", "100 rps/p99", "sustained_rps"} {
		if !strings.Contains(report, series) {
			t.Errorf("report missing series %q", series)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	oldPath := writeJSON(t, sampleLoadReport(1, 100), "old.json")
	slow := sampleLoadReport(1, 100)
	slow.Steps[1].Latency.P99 *= 3 // 3x tail regression at one step only
	newPath := writeJSON(t, slow, "new.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 3 {
		t.Fatalf("3x regression: exit %d, want 3", code)
	}
	report := readFile(t, md)
	if !strings.Contains(report, "1 of 5 shared series regressed") ||
		!strings.Contains(report, "- step/100 rps/p99: 20.0ms -> 60.0ms (3.00x)") {
		t.Errorf("report does not flag exactly the 100 rps/p99 regression:\n%s", report)
	}
}

func TestCompareImprovementStaysGreen(t *testing.T) {
	oldPath := writeJSON(t, sampleLoadReport(3, 100), "old.json")
	newPath := writeJSON(t, sampleLoadReport(1, 300), "new.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 0 {
		t.Fatalf("uniform 3x improvement: exit %d, want 0", code)
	}
	if report := readFile(t, md); strings.Count(report, "| improved |") != 5 {
		t.Errorf("want all 5 series marked improved:\n%s", report)
	}
}

func TestCompareSchemaSkew(t *testing.T) {
	// A baseline whose ramp stopped earlier still compares cleanly against a
	// report with more steps: only steps both sides ran without an SLO
	// violation are compared.
	oldRep := sampleLoadReport(1, 50)
	oldRep.Steps[1].Violations = []string{"p99 over SLO"}
	oldPath := writeJSON(t, oldRep, "old.json")
	newRep := sampleLoadReport(1, 50)
	newRep.Steps = append(newRep.Steps, newRep.Steps[1])
	newRep.Steps[2].TargetRPS = 150
	newPath := writeJSON(t, newRep, "new.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 0 {
		t.Fatalf("schema skew: exit %d, want 0", code)
	}
	report := readFile(t, md)
	if strings.Contains(report, "100 rps") || strings.Contains(report, "150 rps") {
		t.Errorf("report compares a step the baseline lacks or violated:\n%s", report)
	}
	if !strings.Contains(report, "across 3 shared series") {
		t.Errorf("want the 50 rps step and the knee compared:\n%s", report)
	}
}

func TestCompareBadInputs(t *testing.T) {
	good := writeJSON(t, sampleLoadReport(1, 100), "good.json")
	if code := runCompare(filepath.Join(t.TempDir(), "missing.json"), good, "", 1.25); code != 1 {
		t.Error("missing old file should exit 1")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runCompare(good, bad, "", 1.25); code != 1 {
		t.Error("malformed new file should exit 1")
	}
	if code := runCompare(good, good, "", 0.5); code != 2 {
		t.Error("threshold <= 1 should exit 2")
	}
}

func TestCompareLoadReports(t *testing.T) {
	oldPath := writeJSON(t, sampleLoadReport(1, 100), "old.json")
	newPath := writeJSON(t, sampleLoadReport(1, 100), "new.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 0 {
		t.Fatalf("identical load reports: exit %d, want 0", code)
	}
	report := readFile(t, md)
	for _, want := range []string{"Load comparison", "50 rps/p50", "100 rps/p99", "sustained_rps"} {
		if !strings.Contains(report, want) {
			t.Errorf("load report comparison missing %q:\n%s", want, report)
		}
	}
}

func TestCompareLoadLatencyRegression(t *testing.T) {
	oldPath := writeJSON(t, sampleLoadReport(1, 100), "old.json")
	newPath := writeJSON(t, sampleLoadReport(3, 100), "new.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 3 {
		t.Fatalf("3x latency regression: exit %d, want 3", code)
	}
}

func TestCompareLoadKneeRegression(t *testing.T) {
	// The knee dropping from 100 to 50 rps is a regression even though every
	// shared step's latency is unchanged: the throughput ratio inverts.
	oldPath := writeJSON(t, sampleLoadReport(1, 100), "old.json")
	newPath := writeJSON(t, sampleLoadReport(1, 50), "new.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 3 {
		t.Fatalf("knee halved: exit %d, want 3", code)
	}
	if report := readFile(t, md); !strings.Contains(report, "knee/sustained_rps") {
		t.Errorf("knee regression not named:\n%s", report)
	}
	// A knee that RISES must stay green.
	better := writeJSON(t, sampleLoadReport(1, 200), "better.json")
	if code := runCompare(oldPath, better, "", 1.25); code != 0 {
		t.Error("knee doubling flagged as regression")
	}
}

func TestCompareMixedReportTypes(t *testing.T) {
	// A BENCH trajectory from the retired sdfbench -json, and a load report
	// of a schema this build does not know, are operational errors.
	trajectory := writeJSON(t, map[string]any{
		"schema": "sdfbench/v2", "date": "2026-01-01T00:00:00Z",
		"phases": []map[string]any{{"name": "table1", "wall_ns": 100_000}},
	}, "bench.json")
	loadp := writeJSON(t, sampleLoadReport(1, 100), "load.json")
	if code := runCompare(trajectory, loadp, "", 1.25); code != 1 {
		t.Error("bench-vs-load should be an operational error (exit 1)")
	}
	if code := runCompare(loadp, trajectory, "", 1.25); code != 1 {
		t.Error("load-vs-bench should be an operational error (exit 1)")
	}
	future := sampleLoadReport(1, 100)
	future.Version = "load/v999"
	if code := runCompare(loadp, writeJSON(t, future, "future.json"), "", 1.25); code != 1 {
		t.Error("an unknown load schema version should exit 1")
	}
}

func TestCompareEmptySeriesOneSide(t *testing.T) {
	// An empty baseline shares no steps with a report that found no knee:
	// nothing is comparable, which is an operational error, not a silent
	// green.
	emptyLoad := writeJSON(t, &load.Report{Version: load.ReportVersion}, "empty_load.json")
	noKnee := writeJSON(t, sampleLoadReport(1, 0), "no_knee.json")
	if code := runCompare(emptyLoad, noKnee, "", 1.25); code != 1 {
		t.Error("no shared series should exit 1")
	}
	// Against a report with a knee, only the knee row remains, incomparable
	// (old side 0) — reported n/a, never a regression.
	fullLoad := writeJSON(t, sampleLoadReport(1, 100), "full_load.json")
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(emptyLoad, fullLoad, md, 1.25); code != 0 {
		t.Errorf("empty load baseline: exit %d, want 0 (knee row incomparable)", code)
	}
	if report := readFile(t, md); !strings.Contains(report, "n/a") {
		t.Errorf("incomparable knee row not marked n/a:\n%s", report)
	}
}

func TestCompareZeroBaselineIncomparable(t *testing.T) {
	zero := sampleLoadReport(1, 100)
	zero.Steps[0].Latency.P50 = 0 // dead series in the baseline
	oldPath := writeJSON(t, zero, "old.json")
	newPath := writeJSON(t, sampleLoadReport(1, 0), "new.json") // and no knee on the new side
	md := filepath.Join(t.TempDir(), "report.md")
	if code := runCompare(oldPath, newPath, md, 1.25); code != 0 {
		t.Fatalf("zero baseline series: exit %d, want 0 (incomparable, not a regression)", code)
	}
	report := readFile(t, md)
	if strings.Contains(report, "NaN") || strings.Contains(report, "Inf") {
		t.Errorf("zero baseline leaked NaN/Inf into the report:\n%s", report)
	}
	if strings.Count(report, "| n/a |") != 2 {
		t.Errorf("want the zero p50 row and the zero knee row marked n/a:\n%s", report)
	}
}

func TestCompareGoldenMarkdown(t *testing.T) {
	// Pin the exact rendering: every series regressed (latency doubled,
	// knee halved), then a regression, an improvement, and an incomparable
	// row in one report.
	oldLoad := sampleLoadReport(1, 100)
	newLoad := sampleLoadReport(2, 50)
	mdLoad, _ := formatCompareMarkdown("old.json", "new.json",
		compareLoadRows(oldLoad, newLoad), 1.25)
	goldentest.Compare(t, filepath.Join("testdata", "compare_load.golden.md"), mdLoad)

	oldMixed := sampleLoadReport(1, 100)
	newMixed := sampleLoadReport(1, 100)
	newMixed.Steps[1].Latency.P99 *= 3 // regression
	newMixed.Steps[0].Latency.P50 /= 2 // improvement
	oldMixed.Steps[1].Latency.P50 = 0  // n/a row
	mdMixed, _ := formatCompareMarkdown("old.json", "new.json",
		compareLoadRows(oldMixed, newMixed), 1.25)
	goldentest.Compare(t, filepath.Join("testdata", "compare_verdicts.golden.md"), mdMixed)
}
