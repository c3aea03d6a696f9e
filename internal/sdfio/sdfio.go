// Package sdfio reads and writes SDF graphs in a line-oriented text format
// used by the command-line tools:
//
//	# comment
//	graph myGraph
//	actor A
//	actor B
//	edge A B 2 3 0     # src dst prod cons delay (delay optional)
//
// Actor lines may be omitted: edge lines implicitly declare their endpoints
// in order of first mention.
package sdfio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/sdf"
)

// Parse reads a graph from r. Lines may be of any length: the text Write
// renders for a graph Parse accepted can be longer than its source (an
// omitted delay is spelled out), and it must parse back.
func Parse(r io.Reader) (*sdf.Graph, error) {
	g := sdf.New("unnamed")
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, math.MaxInt)
	lineNo := 0
	ensure := func(name string) sdf.ActorID {
		if a, ok := g.ActorByName(name); ok {
			return a.ID
		}
		return g.AddActor(name)
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("sdfio: line %d: graph needs a name", lineNo)
			}
			g.Name = fields[1]
		case "actor":
			if len(fields) != 2 {
				return nil, fmt.Errorf("sdfio: line %d: actor needs a name", lineNo)
			}
			if _, ok := g.ActorByName(fields[1]); ok {
				return nil, fmt.Errorf("sdfio: line %d: duplicate actor %q", lineNo, fields[1])
			}
			g.AddActor(fields[1])
		case "edge":
			if len(fields) < 5 || len(fields) > 7 {
				return nil, fmt.Errorf("sdfio: line %d: edge needs src dst prod cons [delay [words]]", lineNo)
			}
			src := ensure(fields[1])
			dst := ensure(fields[2])
			nums := make([]int64, 0, 4)
			for _, f := range fields[3:] {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sdfio: line %d: bad number %q", lineNo, f)
				}
				nums = append(nums, v)
			}
			delay, words := int64(0), int64(1)
			if len(nums) >= 3 {
				delay = nums[2]
			}
			if len(nums) == 4 {
				words = nums[3]
			}
			if nums[0] <= 0 || nums[1] <= 0 || delay < 0 || words < 1 {
				return nil, fmt.Errorf("sdfio: line %d: invalid rates %v", lineNo, nums)
			}
			id := g.AddEdge(src, dst, nums[0], nums[1], delay)
			if words > 1 {
				g.SetWords(id, words)
			}
		default:
			return nil, fmt.Errorf("sdfio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.NumActors() == 0 {
		return nil, fmt.Errorf("sdfio: empty graph")
	}
	return g, nil
}

// Write serializes a graph in the same format.
func Write(w io.Writer, g *sdf.Graph) error {
	if _, err := fmt.Fprintf(w, "graph %s\n", g.Name); err != nil {
		return err
	}
	for _, a := range g.Actors() {
		if _, err := fmt.Fprintf(w, "actor %s\n", a.Name); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if e.Words > 1 {
			if _, err := fmt.Fprintf(w, "edge %s %s %d %d %d %d\n",
				g.Actor(e.Src).Name, g.Actor(e.Dst).Name, e.Prod, e.Cons, e.Delay, e.Words); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "edge %s %s %d %d %d\n",
			g.Actor(e.Src).Name, g.Actor(e.Dst).Name, e.Prod, e.Cons, e.Delay); err != nil {
			return err
		}
	}
	return nil
}
