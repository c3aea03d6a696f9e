package codegen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// compileP compiles one of the multirate reference systems with a P-way
// partitioned schedule (verification on, so the phased simulator has already
// blessed the partitioning before codegen sees it).
func compileP(t *testing.T, name string, p int) *core.Result {
	t.Helper()
	var g *sdf.Graph
	switch name {
	case "cddat":
		g = systems.CDDAT()
	case "satrec":
		g = systems.SatelliteReceiver()
	default:
		t.Fatalf("unknown system %s", name)
	}
	res, err := core.Compile(g, core.Options{Verify: true, Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refChecksums runs the sequential reference interpreter with the generated
// code's actor semantics — output token i carries the firing's input sum
// plus i — and returns each actor's accumulated input sum after the given
// number of periods. SDF determinism makes this the exact value the threaded
// C program prints, whatever its worker interleaving.
func refChecksums(t *testing.T, res *core.Result, periods int) []float64 {
	t.Helper()
	g := res.Graph
	checks := make([]float64, g.NumActors())
	fires := map[sdf.ActorID]runtime.Fire{}
	for _, a := range g.Actors() {
		id := a.ID
		fires[id] = func(inputs [][]float64) [][]float64 {
			var acc float64
			for _, in := range inputs {
				for _, v := range in {
					acc += v
				}
			}
			checks[id] += acc
			outs := make([][]float64, len(g.Out(id)))
			for oi, eid := range g.Out(id) {
				vals := make([]float64, g.Edge(eid).Prod)
				for i := range vals {
					vals[i] = acc + float64(i)
				}
				outs[oi] = vals
			}
			return outs
		}
	}
	eng, err := runtime.New(res, fires)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < periods; p++ {
		if err := eng.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	return checks
}

func TestGenerateThreadedCStructure(t *testing.T) {
	res := compileP(t, "cddat", 2)
	src := GenerateThreadedC(res)
	for _, want := range []string{
		"#include <pthread.h>",
		"#define WORKERS 2",
		"static void barrier_await(void)",
		"static void *worker_0(void *arg)",
		"static void *worker_1(void *arg)",
		"pthread_create(&tid[1], 0, worker_1, 0);",
		"check_cd",
		"int main(void)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated threaded C missing %q", want)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces in generated threaded C")
	}
	// Exactly one barrier call per phase per worker (the definition spells
	// its parameter list "(void)" and so doesn't match).
	wantBarriers := res.Partition.NumPhases * res.Partition.P
	if got := strings.Count(src, "barrier_await()"); got != wantBarriers {
		t.Errorf("barrier_await appears %d times, want %d", got, wantBarriers)
	}
}

func TestGenerateThreadedCWithoutPartition(t *testing.T) {
	res, err := core.Compile(systems.CDDAT(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if src := GenerateThreadedC(res); src != "" {
		t.Errorf("unpartitioned result generated %d bytes of threaded C, want none", len(src))
	}
}

func TestGenerateThreadedCDeterministic(t *testing.T) {
	a := GenerateThreadedC(compileP(t, "satrec", 3))
	b := GenerateThreadedC(compileP(t, "satrec", 3))
	if a != b {
		t.Error("threaded code generation is not deterministic")
	}
}

// TestThreadedCMatchesReference builds and runs the threaded C for two
// multirate systems and compares every per-actor checksum bit-for-bit
// against the sequential reference interpreter (%.17g round-trips float64
// exactly, and the C program's additions happen in the same per-actor order
// as the reference's, so equality is exact).
func TestThreadedCMatchesReference(t *testing.T) {
	cc := lookCC(t)
	for _, tc := range []struct {
		name string
		p    int
	}{
		{"cddat", 2},
		{"satrec", 2},
		{"satrec", 3},
	} {
		res := compileP(t, tc.name, tc.p)
		want := refChecksums(t, res, 4) // the generated main runs 4 periods
		src := GenerateThreadedC(res)
		dir := t.TempDir()
		cfile := filepath.Join(dir, tc.name+".c")
		if err := os.WriteFile(cfile, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opt := range cOptLevels {
			label := fmt.Sprintf("%s/p%d/%s", tc.name, tc.p, opt)
			bin := filepath.Join(dir, tc.name+opt)
			out, err := exec.Command(cc, "-std=c99", opt, "-Wall", "-Werror", "-pthread", "-o", bin, cfile).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: cc failed: %v\n%s", label, err, out)
			}
			out, err = exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: threaded binary failed: %v\n%s", label, err, out)
			}
			checkThreadedOutput(t, label, res, want, out)
		}
	}
}

// checkThreadedOutput compares the checksum lines a threaded binary printed
// with the reference interpreter's.
func checkThreadedOutput(t *testing.T, label string, res *core.Result, want []float64, out []byte) {
	t.Helper()
	got := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, val, ok := strings.Cut(line, " = ")
		if !ok || !strings.HasPrefix(name, "check_") {
			t.Fatalf("%s: unexpected output line %q", label, line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: bad checksum in %q: %v", label, line, err)
		}
		got[strings.TrimPrefix(name, "check_")] = f
	}
	g := res.Graph
	if len(got) != g.NumActors() {
		t.Fatalf("%s: %d checksum lines for %d actors", label, len(got), g.NumActors())
	}
	for _, a := range g.Actors() {
		v, ok := got[sanitize(a.Name)]
		if !ok {
			t.Errorf("%s: no checksum printed for actor %s", label, a.Name)
			continue
		}
		if v != want[a.ID] {
			t.Errorf("%s: check_%s = %v, reference %v", label, a.Name, v, want[a.ID])
		}
	}
}
