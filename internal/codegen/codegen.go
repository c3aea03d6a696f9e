// Package codegen emits a C implementation of a compiled SDF system using
// the threading model described in Sec. 1 of the paper: one code block per
// actor, stitched together by the loop structure of the single appearance
// schedule, with every edge buffer placed at its allocated offset inside a
// single shared memory array.
//
// The generated code is self-contained, standard C99, and deterministic for
// a given compilation result. Actor bodies are synthetic (each output token
// is the running sum of consumed inputs), standing in for the hand-optimized
// library blocks a production synthesis flow would substitute.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// GenerateC renders the compiled system as a C translation unit: the P=1
// program of its looped schedule. Returns "" when the allocation does not
// place every edge buffer inside its image.
func GenerateC(res *core.Result) string {
	prog, err := partition.Sequential(res.Schedule, res.Intervals, res.Best)
	if err != nil {
		return ""
	}
	g := res.Graph
	var b strings.Builder
	fmt.Fprintf(&b, "/* Generated shared-memory implementation of SDF graph %q.\n", g.Name)
	fmt.Fprintf(&b, " * Schedule: %s\n", res.Schedule)
	fmt.Fprintf(&b, " * Shared buffer memory: %d cells (non-shared would need %d).\n",
		prog.Total, res.Metrics.NonSharedBufMem)
	b.WriteString(" */\n\n#include <stdio.h>\n\ntypedef double token_t;\n\n")
	writeMem(&b, prog.Total)
	b.WriteString("/* Edge buffers: offset and size inside the shared array. */\n")
	writeBuffers(&b, g, &prog.Layout)

	// Actor firing functions.
	for _, a := range g.Actors() {
		writeFire(&b, g, &prog.Layout, a.ID)
		if len(g.In(a.ID)) == 0 && len(g.Out(a.ID)) == 0 {
			b.WriteString("    (void)acc;\n")
		}
		b.WriteString("}\n\n")
	}

	// Period body from the schedule's loop structure.
	b.WriteString("static void run_period(void) {\n")
	depth := 0
	for _, n := range prog.Phases[0][0] {
		writeLoop(&b, g, n, 1, &depth)
	}
	b.WriteString("}\n\n")

	// Main: seed initial tokens, run periods.
	b.WriteString("int main(void) {\n")
	writeDelays(&b, g)
	b.WriteString("    for (int period = 0; period < 4; period++) run_period();\n")
	b.WriteString("    printf(\"mem[0] = %g\\n\", (double)mem[0]);\n")
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

// writeMem declares the memory image array. It has external linkage on
// purpose: with a static array whose address is never taken, an optimizing
// compiler may keep loads of mem across a barrier it can see through (gcc 12
// at -O2 did so with a C11-atomics barrier), so one worker would read stale
// tokens another wrote.
func writeMem(b *strings.Builder, total int64) {
	fmt.Fprintf(b, "#define MEM_SIZE %dL\ntoken_t mem[MEM_SIZE];\n\n", max(total, 1))
}

// writeBuffers declares every edge buffer's offset, size and token-footprint
// macros plus its cursors.
func writeBuffers(b *strings.Builder, g *sdf.Graph, l *partition.Layout) {
	for _, e := range g.Edges() {
		fmt.Fprintf(b, "#define E%d_OFF %dL /* %s */\n#define E%d_SIZE %dL\n#define E%d_W %dL\n",
			e.ID, l.Offsets[e.ID], l.Names[e.ID], e.ID, l.Sizes[e.ID], e.ID, e.Words)
		fmt.Fprintf(b, "static long w%d, r%d;\n", e.ID, e.ID)
	}
	b.WriteString("\n")
}

// writeFire opens an actor's firing function and writes its body: the sum
// of every consumed token, then output token i carrying that sum plus i.
// The caller closes the function.
func writeFire(b *strings.Builder, g *sdf.Graph, l *partition.Layout, a sdf.ActorID) {
	fmt.Fprintf(b, "static void fire_%s(void) {\n", sanitize(g.Actor(a).Name))
	b.WriteString("    token_t acc = 0;\n")
	for _, eid := range g.In(a) {
		fmt.Fprintf(b, "    for (long i = 0; i < %d; i++) { /* consume %s */\n", g.Edge(eid).Cons, l.Names[eid])
		fmt.Fprintf(b, "        acc += mem[E%d_OFF + ((r%d++) * E%d_W) %% E%d_SIZE];\n", eid, eid, eid, eid)
		b.WriteString("    }\n")
	}
	for _, eid := range g.Out(a) {
		fmt.Fprintf(b, "    for (long i = 0; i < %d; i++) { /* produce %s */\n", g.Edge(eid).Prod, l.Names[eid])
		fmt.Fprintf(b, "        mem[E%d_OFF + ((w%d++) * E%d_W) %% E%d_SIZE] = acc + (token_t)i;\n",
			eid, eid, eid, eid)
		b.WriteString("    }\n")
	}
}

// writeDelays seeds every edge's initial tokens with zeros.
func writeDelays(b *strings.Builder, g *sdf.Graph) {
	for _, e := range g.Edges() {
		if e.Delay > 0 {
			fmt.Fprintf(b, "    for (long i = 0; i < %d; i++) mem[E%d_OFF + ((w%d++) * E%d_W) %% E%d_SIZE] = 0; /* delays */\n",
				e.Delay, e.ID, e.ID, e.ID, e.ID)
		}
	}
}

func writeLoop(b *strings.Builder, g *sdf.Graph, n *sched.Node, indent int, depth *int) {
	pad := strings.Repeat("    ", indent)
	if n.IsLeaf() {
		name := sanitize(g.Actor(n.Actor).Name)
		if n.Count == 1 {
			fmt.Fprintf(b, "%sfire_%s();\n", pad, name)
			return
		}
		v := fmt.Sprintf("i%d", *depth)
		*depth++
		fmt.Fprintf(b, "%sfor (long %s = 0; %s < %d; %s++) fire_%s();\n",
			pad, v, v, n.Count, v, name)
		return
	}
	if n.Count == 1 {
		for _, ch := range n.Children {
			writeLoop(b, g, ch, indent, depth)
		}
		return
	}
	v := fmt.Sprintf("i%d", *depth)
	*depth++
	fmt.Fprintf(b, "%sfor (long %s = 0; %s < %d; %s++) {\n", pad, v, v, n.Count, v)
	for _, ch := range n.Children {
		writeLoop(b, g, ch, indent+1, depth)
	}
	fmt.Fprintf(b, "%s}\n", pad)
}

// sanitize maps an actor name to a valid C identifier fragment.
func sanitize(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('n')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
