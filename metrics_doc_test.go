package repro

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/nodestore"
	"repro/internal/service"
)

var (
	metricType = regexp.MustCompile(`(?m)^# TYPE (sdfd_\w+) (\w+)$`)
	docMetric  = regexp.MustCompile("`(sdfd_\\w+)`")
)

// docMetricTable reads the "## Metrics" table of docs/SERVICE.md: each
// sdfd_* family its name column lists, with the row's type column ("gauge*"
// marks counters exported as gauges and reads as gauge).
func docMetricTable(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Metrics\n")
	if !ok {
		t.Fatal(`docs/SERVICE.md has no "## Metrics" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	table := make(map[string]string)
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 4 || !strings.HasPrefix(line, "|") {
			continue
		}
		typ := strings.TrimSuffix(strings.TrimSpace(cols[2]), "*")
		for _, m := range docMetric.FindAllStringSubmatch(cols[1], -1) {
			table[m[1]] = typ
		}
	}
	if len(table) == 0 {
		t.Fatal("docs/SERVICE.md's metrics table names no sdfd_* family")
	}
	return table
}

// TestServiceMetricsTable: the metrics table of docs/SERVICE.md names
// exactly the sdfd_* families a server registers, each with its type. The
// server runs with a cluster and a node store, so every family registers.
func TestServiceMetricsTable(t *testing.T) {
	st, err := nodestore.Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{
		Workers:   1,
		NodeStore: st,
		Cluster: &service.ClusterConfig{
			Self:          "127.0.0.1:1",
			Peers:         []string{"127.0.0.1:2"},
			ProbeInterval: time.Hour,
			RetryMin:      time.Hour,
			RetryMax:      time.Hour,
		},
	})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	registered := make(map[string]string)
	for _, m := range metricType.FindAllStringSubmatch(rec.Body.String(), -1) {
		registered[m[1]] = m[2]
	}

	table := docMetricTable(t)
	var problems []string
	for name, typ := range registered {
		switch doc, ok := table[name]; {
		case !ok:
			problems = append(problems, name+" is registered but missing from the table")
		case doc != typ:
			problems = append(problems, name+" is a "+typ+", the table says "+doc)
		}
	}
	for name := range table {
		if _, ok := registered[name]; !ok {
			problems = append(problems, name+" is in the table but not registered")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error("docs/SERVICE.md metrics table: " + p)
	}
}
