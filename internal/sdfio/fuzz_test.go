package sdfio

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the .sdf reader; it must never panic,
// and every graph it accepts must survive a Write/Parse round trip field
// for field (sameGraph), with Write's text a fixed point.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"graph g\nactor A\nactor B\nedge A B 1 1\n",
		"edge A B 2 3 4\n",
		"# only a comment\n",
		"actor 名\nedge 名 名 1 1 9\n",
		"graph\n",
		"edge A A 1 1 1\n",
		"edge A B 0 0\n",
		// An edge line of 65 534 bytes, 2 short of bufio.MaxScanTokenSize:
		// Write spells out its delay and its line grows past that size.
		"edge " + strings.Repeat("a", 65523) + " B 1 1\n",
		// A source line past bufio.MaxScanTokenSize.
		"actor " + strings.Repeat("b", 1<<17) + "\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		back, written, err := roundTrip(g)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, written)
		}
		if err := sameGraph(g, back); err != nil {
			t.Fatalf("round trip changed the graph: %v\n%s", err, written)
		}
		if again, err := CanonicalString(back); err != nil || again != written {
			t.Fatalf("written text is not a fixed point: %v\n%q\n%q", err, written, again)
		}
	})
}
