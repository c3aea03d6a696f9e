package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)

// fuzzTargets maps each package directory of the module ("./internal/sdfio")
// to the native fuzz targets its test files declare. Nested modules (bench/)
// and testdata are not part of the module's go test ./... and are skipped.
func fuzzTargets(t *testing.T) map[string][]string {
	t.Helper()
	targets := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			targets[pkg] = append(targets[pkg], string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// fuzzShortLine is one `go test -fuzz=PATTERN ... PKG` line of the
// Makefile's fuzz-short recipe.
type fuzzShortLine struct {
	pattern *regexp.Regexp
	pkg     string
	text    string
}

// fuzzShortLines reads the fuzz-short recipe, undoing Make's `$$` and the
// shell's single quotes around the pattern.
func fuzzShortLines(t *testing.T) []fuzzShortLine {
	t.Helper()
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var lines []fuzzShortLine
	inRecipe := false
	for _, line := range strings.Split(string(makefile), "\n") {
		if strings.HasPrefix(line, "fuzz-short:") {
			inRecipe = true
			continue
		}
		if !inRecipe {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		fields := strings.Fields(line)
		for _, f := range fields {
			value, ok := strings.CutPrefix(f, "-fuzz=")
			if !ok {
				continue
			}
			value = strings.ReplaceAll(strings.Trim(value, "'"), "$$", "$")
			re, err := regexp.Compile(value)
			if err != nil {
				t.Fatalf("fuzz-short line %q: %v", line, err)
			}
			lines = append(lines, fuzzShortLine{pattern: re, pkg: fields[len(fields)-1], text: strings.TrimSpace(line)})
		}
	}
	if len(lines) == 0 {
		t.Fatal("no -fuzz= lines found in the Makefile's fuzz-short recipe")
	}
	return lines
}

// TestFuzzShortWiring: every native fuzz target in the module has a
// -fuzz= line for its package in `make fuzz-short`, the loop CI runs, and
// every such line selects exactly one target (go test -fuzz refuses a
// pattern that matches several, and one that matches none fuzzes nothing).
func TestFuzzShortWiring(t *testing.T) {
	targets := fuzzTargets(t)
	lines := fuzzShortLines(t)
	for pkg, names := range targets {
		for _, name := range names {
			covered := false
			for _, l := range lines {
				if l.pkg == pkg && l.pattern.MatchString(name) {
					covered = true
				}
			}
			if !covered {
				t.Errorf("fuzz target %s in %s has no -fuzz= line in the Makefile's fuzz-short recipe", name, pkg)
			}
		}
	}
	for _, l := range lines {
		var matched []string
		for _, name := range targets[l.pkg] {
			if l.pattern.MatchString(name) {
				matched = append(matched, name)
			}
		}
		if len(matched) != 1 {
			t.Errorf("fuzz-short line %q selects %d fuzz targets %v, want exactly 1", l.text, len(matched), matched)
		}
	}
}
