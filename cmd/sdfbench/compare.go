package main

// sdfbench -compare old.json new.json: diff two LOAD_*.json saturation
// reports from sdfload (their "version" must be load.ReportVersion), render
// a markdown report, and gate on a regression threshold so a human can tell
// "this change made the daemon slower under load" from noise. The repo's
// performance benchmark, with its own paired compare, is bench/.
//
// Exit codes: 0 no regressions, 1 operational error (unreadable or
// malformed file, a file that is not a load report, or no shared series),
// 3 at least one comparable series regressed beyond the threshold. Only
// ramp steps present in BOTH reports are compared.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/load"
)

// compareRow is one comparable series across the two reports: a latency
// series (OldNS/NewNS, lower is better) or, with HigherBetter set, a
// throughput series (OldRPS/NewRPS — the saturation knee).
type compareRow struct {
	Section string
	Key     string
	OldNS   int64
	NewNS   int64
	// HigherBetter marks a throughput series carried in OldRPS/NewRPS; its
	// ratio inverts so that >1 still reads "worse".
	HigherBetter   bool
	OldRPS, NewRPS float64
}

// ratio normalizes both series kinds so that ratio > threshold always means
// regression: new/old for latencies, old/new for throughput. 0 when the
// baseline side is empty (incomparable).
func (r compareRow) ratio() float64 {
	if r.HigherBetter {
		if r.NewRPS <= 0 {
			return 0
		}
		return r.OldRPS / r.NewRPS
	}
	if r.OldNS <= 0 {
		return 0
	}
	return float64(r.NewNS) / float64(r.OldNS)
}

// values renders both sides for the markdown table.
func (r compareRow) values() (string, string) {
	if r.HigherBetter {
		return fmt.Sprintf("%.4g rps", r.OldRPS), fmt.Sprintf("%.4g rps", r.NewRPS)
	}
	return formatNS(r.OldNS), formatNS(r.NewNS)
}

// loadLoadReport reads a sdfload report, refusing any file whose version
// field is not load.ReportVersion (a BENCH trajectory from the retired
// sdfbench -json, a bench/ results file, or an older load schema).
func loadLoadReport(path string) (*load.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep load.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Version != load.ReportVersion {
		return nil, fmt.Errorf("%s: report version %q, this sdfbench compares %q load reports",
			path, rep.Version, load.ReportVersion)
	}
	return &rep, nil
}

// compareLoadRows pairs the two saturation reports: per shared ramp step
// (matched by offered RPS) the open-loop p50/p99, and the sustained knee
// RPS as a higher-is-better throughput row. Violating steps are excluded —
// their latency measures where the knee is, not how fast the server runs.
func compareLoadRows(oldRep, newRep *load.Report) []compareRow {
	var rows []compareRow
	newSteps := map[float64]load.StepResult{}
	for _, st := range newRep.Steps {
		if len(st.Violations) == 0 {
			newSteps[st.TargetRPS] = st
		}
	}
	for _, st := range oldRep.Steps {
		if len(st.Violations) > 0 {
			continue
		}
		n, ok := newSteps[st.TargetRPS]
		if !ok {
			continue
		}
		key := fmt.Sprintf("%.4g rps", st.TargetRPS)
		rows = append(rows,
			compareRow{Section: "step", Key: key + "/p50", OldNS: st.Latency.P50, NewNS: n.Latency.P50},
			compareRow{Section: "step", Key: key + "/p99", OldNS: st.Latency.P99, NewNS: n.Latency.P99},
		)
	}
	if oldRep.Knee.RPS > 0 || newRep.Knee.RPS > 0 {
		rows = append(rows, compareRow{
			Section: "knee", Key: "sustained_rps",
			HigherBetter: true, OldRPS: oldRep.Knee.RPS, NewRPS: newRep.Knee.RPS,
		})
	}
	return rows
}

// formatCompareMarkdown renders the comparison as a markdown document:
// every shared series with old/new values and ratio, regressions flagged,
// and a short verdict line CI logs surface well.
func formatCompareMarkdown(oldPath, newPath string, rows []compareRow, threshold float64) (string, []compareRow) {
	var regressions []compareRow
	var b strings.Builder
	fmt.Fprintf(&b, "# Load comparison\n\n")
	fmt.Fprintf(&b, "Old: `%s`\nNew: `%s`\nThreshold: %.2fx\n\n", oldPath, newPath, threshold)
	fmt.Fprintf(&b, "| section | series | old | new | ratio | |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---|\n")
	for _, r := range rows {
		ratio := r.ratio()
		flag := ""
		switch {
		case ratio == 0:
			flag = "n/a"
		case ratio > threshold:
			flag = "REGRESSION"
			regressions = append(regressions, r)
		case ratio < 1/threshold:
			flag = "improved"
		}
		oldV, newV := r.values()
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %.2f | %s |\n",
			r.Section, r.Key, oldV, newV, ratio, flag)
	}
	fmt.Fprintf(&b, "\n")
	if len(regressions) == 0 {
		fmt.Fprintf(&b, "No regressions beyond %.2fx across %d shared series.\n", threshold, len(rows))
	} else {
		fmt.Fprintf(&b, "%d of %d shared series regressed beyond %.2fx:\n\n", len(regressions), len(rows), threshold)
		for _, r := range regressions {
			oldV, newV := r.values()
			fmt.Fprintf(&b, "- %s/%s: %s -> %s (%.2fx)\n", r.Section, r.Key, oldV, newV, r.ratio())
		}
	}
	return b.String(), regressions
}

// formatNS prints a nanosecond count with a human unit, stable enough for
// tables (three significant-ish digits).
func formatNS(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// runCompare is the -compare entry point; returns the process exit code.
func runCompare(oldPath, newPath, mdPath string, threshold float64) int {
	if threshold <= 1 {
		fmt.Fprintf(os.Stderr, "sdfbench: -threshold must be > 1 (got %v)\n", threshold)
		return 2
	}
	oldRep, err := loadLoadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdfbench:", err)
		return 1
	}
	newRep, err := loadLoadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdfbench:", err)
		return 1
	}
	rows := compareLoadRows(oldRep, newRep)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "sdfbench: the two reports share no comparable series")
		return 1
	}
	md, regressions := formatCompareMarkdown(oldPath, newPath, rows, threshold)
	if mdPath == "" {
		fmt.Print(md)
	} else {
		if err := os.WriteFile(mdPath, []byte(md), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sdfbench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "sdfbench: wrote", mdPath)
	}
	if len(regressions) > 0 {
		return 3
	}
	return 0
}
