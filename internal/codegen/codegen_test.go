package codegen

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/systems"
)

func compile(t *testing.T, name string) *core.Result {
	t.Helper()
	var res *core.Result
	var err error
	switch name {
	case "cddat":
		res, err = core.Compile(systems.CDDAT(), core.Options{Verify: true})
	case "satrec":
		res, err = core.Compile(systems.SatelliteReceiver(), core.Options{Verify: true})
	default:
		t.Fatalf("unknown system %s", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateCStructure(t *testing.T) {
	res := compile(t, "cddat")
	src := GenerateC(res)
	for _, want := range []string{
		"#define MEM_SIZE",
		"\ntoken_t mem[MEM_SIZE];",
		"static void fire_cd(void)",
		"static void fire_dat(void)",
		"static void run_period(void)",
		"int main(void)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces in generated C")
	}
	// Every edge gets offset/size macros and cursors.
	for i := 0; i < res.Graph.NumEdges(); i++ {
		for _, frag := range []string{"_OFF", "_SIZE"} {
			if !strings.Contains(src, "E0"+frag) {
				t.Errorf("missing macro E0%s", frag)
			}
		}
		_ = i
	}
}

func TestGenerateCDeterministic(t *testing.T) {
	a := GenerateC(compile(t, "cddat"))
	b := GenerateC(compile(t, "cddat"))
	if a != b {
		t.Error("code generation is not deterministic")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"src":   "src",
		"t_add": "t_add",
		"16qam": "n16qam",
		"a-b.c": "a_b_c",
		"A":     "A",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// cOptLevels are the optimization levels the emitted C is compiled at: an
// optimizer-only miscompile (say, loads of mem kept across a barrier) passes
// at -O0 and shows only at -O2.
var cOptLevels = []string{"-O0", "-O2"}

// lookCC returns the C compiler, or skips the test with the reason.
func lookCC(t *testing.T) string {
	t.Helper()
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skipf("emitted C not compiled: no C compiler in PATH (%v)", err)
	}
	return cc
}

// TestGeneratedCCompilesAndRuns builds and executes the generated C at every
// level of cOptLevels when a C compiler is available, as an end-to-end smoke
// check of the emitted code; every level must print the same result.
func TestGeneratedCCompilesAndRuns(t *testing.T) {
	cc := lookCC(t)
	for _, name := range []string{"cddat", "satrec"} {
		res := compile(t, name)
		src := GenerateC(res)
		dir := t.TempDir()
		cfile := filepath.Join(dir, name+".c")
		if err := os.WriteFile(cfile, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var first []byte
		for _, opt := range cOptLevels {
			bin := filepath.Join(dir, name+opt)
			out, err := exec.Command(cc, "-std=c99", opt, "-Wall", "-Werror", "-o", bin, cfile).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %s: cc failed: %v\n%s", name, opt, err, out)
			}
			out, err = exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %s: generated binary failed: %v\n%s", name, opt, err, out)
			}
			if !strings.Contains(string(out), "mem[0]") {
				t.Errorf("%s %s: unexpected output %q", name, opt, out)
			}
			if first == nil {
				first = out
			} else if !bytes.Equal(out, first) {
				t.Errorf("%s: %s prints %q, %s printed %q", name, opt, out, cOptLevels[0], first)
			}
		}
	}
}

func TestGenerateVHDLStructure(t *testing.T) {
	res := compile(t, "satrec")
	src := GenerateVHDL(res)
	for _, want := range []string{
		"entity satrec is",
		"architecture behavioral of satrec is",
		"constant MEM_SIZE : integer :=",
		"type mem_t is array (0 to MEM_SIZE - 1) of integer;",
		"procedure fire_A is",
		"procedure fire_W is",
		"end architecture behavioral;",
		"tick <= '1';",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated VHDL missing %q", want)
		}
	}
	// Every "for ... loop" has a matching "end loop".
	opens := strings.Count(src, "for ")
	closes := strings.Count(src, "end loop;")
	if opens != closes {
		t.Errorf("unbalanced loops: %d opens, %d closes", opens, closes)
	}
	// Every procedure is closed.
	procs := strings.Count(src, "procedure fire_")
	if procs != 2*res.Graph.NumActors() { // declaration + end line
		t.Errorf("procedure count %d, want %d", procs, 2*res.Graph.NumActors())
	}
}

func TestGenerateVHDLDeterministic(t *testing.T) {
	a := GenerateVHDL(compile(t, "cddat"))
	b := GenerateVHDL(compile(t, "cddat"))
	if a != b {
		t.Error("VHDL generation is not deterministic")
	}
}

// TestGeneratedVHDLAnalyzes elaborates the VHDL when a simulator is on PATH.
func TestGeneratedVHDLAnalyzes(t *testing.T) {
	sim, err := exec.LookPath("ghdl")
	if err != nil {
		if sim, err = exec.LookPath("nvc"); err != nil {
			t.Skip("no VHDL analyzer in PATH")
		}
	}
	res := compile(t, "cddat")
	src := GenerateVHDL(res)
	dir := t.TempDir()
	file := filepath.Join(dir, "cddat.vhd")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var cmd *exec.Cmd
	if strings.Contains(sim, "ghdl") {
		cmd = exec.Command(sim, "-a", "--std=08", file)
	} else {
		cmd = exec.Command(sim, "-a", file)
	}
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("VHDL analysis failed: %v\n%s", err, out)
	}
}
