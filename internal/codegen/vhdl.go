package codegen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// GenerateVHDL renders the compiled system as a behavioral VHDL architecture,
// the hardware synthesis path the paper describes in Sec. 1: the schedule's
// loop structure becomes nested for-loops inside a single process, and every
// edge buffer is a slice of one shared memory array with modulo cursors —
// the description a behavioral compiler would map to RTL. Like GenerateC it
// renders the P=1 program and returns "" when the allocation does not place
// every edge buffer inside its image.
func GenerateVHDL(res *core.Result) string {
	prog, err := partition.Sequential(res.Schedule, res.Intervals, res.Best)
	if err != nil {
		return ""
	}
	g := res.Graph
	name := sanitize(g.Name)
	var b strings.Builder
	fmt.Fprintf(&b, "-- Generated shared-memory implementation of SDF graph %q.\n", g.Name)
	fmt.Fprintf(&b, "-- Schedule: %s\n", res.Schedule)
	fmt.Fprintf(&b, "-- Shared buffer memory: %d cells (non-shared would need %d).\n",
		prog.Total, res.Metrics.NonSharedBufMem)
	b.WriteString("library ieee;\nuse ieee.std_logic_1164.all;\n\n")
	fmt.Fprintf(&b, "entity %s is\n  port (\n    clk  : in  std_logic;\n    rst  : in  std_logic;\n    tick : out std_logic  -- pulses once per schedule period\n  );\nend entity %s;\n\n", name, name)
	fmt.Fprintf(&b, "architecture behavioral of %s is\n", name)
	fmt.Fprintf(&b, "  constant MEM_SIZE : integer := %d;\n", max(prog.Total, 1))
	b.WriteString("  type mem_t is array (0 to MEM_SIZE - 1) of integer;\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  constant E%d_OFF  : integer := %d;  -- %s\n", e.ID, prog.Offsets[e.ID], prog.Names[e.ID])
		fmt.Fprintf(&b, "  constant E%d_SIZE : integer := %d;\n", e.ID, prog.Sizes[e.ID])
		fmt.Fprintf(&b, "  constant E%d_W    : integer := %d;\n", e.ID, e.Words)
	}
	b.WriteString("begin\n\n  schedule : process (clk)\n")
	b.WriteString("    variable mem : mem_t := (others => 0);\n")
	b.WriteString("    variable acc : integer;\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "    variable w%d, r%d : integer := 0;\n", e.ID, e.ID)
	}

	// One procedure per actor, declared in the process declarative part.
	for _, a := range g.Actors() {
		writeVHDLActor(&b, g, &prog.Layout, a)
	}

	b.WriteString("  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n")
	b.WriteString("        mem := (others => 0);\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "        w%d := %d; r%d := 0;\n", e.ID, e.Delay, e.ID)
	}
	b.WriteString("        tick <= '0';\n      else\n")
	depth := 0
	for _, n := range prog.Phases[0][0] {
		writeVHDLLoop(&b, g, n, 4, &depth)
	}
	b.WriteString("        tick <= '1';\n      end if;\n    end if;\n  end process schedule;\n\nend architecture behavioral;\n")
	return b.String()
}

// writeVHDLActor emits one firing procedure.
func writeVHDLActor(b *strings.Builder, g *sdf.Graph, l *partition.Layout, a sdf.Actor) {
	fmt.Fprintf(b, "\n    -- actor %s\n    procedure fire_%s is\n    begin\n", a.Name, sanitize(a.Name))
	wrote := false
	b.WriteString("      acc := 0;\n")
	for _, eid := range g.In(a.ID) {
		e := g.Edge(eid)
		fmt.Fprintf(b, "      for k in 0 to %d loop  -- consume %s\n", e.Cons-1, l.Names[eid])
		fmt.Fprintf(b, "        acc := acc + mem(E%d_OFF + ((r%d * E%d_W) mod E%d_SIZE));\n", eid, eid, eid, eid)
		fmt.Fprintf(b, "        r%d := r%d + 1;\n      end loop;\n", eid, eid)
		wrote = true
	}
	for _, eid := range g.Out(a.ID) {
		e := g.Edge(eid)
		fmt.Fprintf(b, "      for k in 0 to %d loop  -- produce %s\n", e.Prod-1, l.Names[eid])
		fmt.Fprintf(b, "        mem(E%d_OFF + ((w%d * E%d_W) mod E%d_SIZE)) := acc;\n", eid, eid, eid, eid)
		fmt.Fprintf(b, "        w%d := w%d + 1;\n      end loop;\n", eid, eid)
		wrote = true
	}
	if !wrote {
		b.WriteString("      null;\n")
	}
	fmt.Fprintf(b, "    end procedure fire_%s;\n", sanitize(a.Name))
}

// writeVHDLLoop renders the schedule's loop nest.
func writeVHDLLoop(b *strings.Builder, g *sdf.Graph, n *sched.Node, indent int, depth *int) {
	pad := strings.Repeat("  ", indent)
	if n.IsLeaf() {
		name := sanitize(g.Actor(n.Actor).Name)
		if n.Count == 1 {
			fmt.Fprintf(b, "%sfire_%s;\n", pad, name)
			return
		}
		v := fmt.Sprintf("i%d", *depth)
		*depth++
		fmt.Fprintf(b, "%sfor %s in 0 to %d loop\n%s  fire_%s;\n%send loop;\n",
			pad, v, n.Count-1, pad, name, pad)
		return
	}
	if n.Count == 1 {
		for _, ch := range n.Children {
			writeVHDLLoop(b, g, ch, indent, depth)
		}
		return
	}
	v := fmt.Sprintf("i%d", *depth)
	*depth++
	fmt.Fprintf(b, "%sfor %s in 0 to %d loop\n", pad, v, n.Count-1)
	for _, ch := range n.Children {
		writeVHDLLoop(b, g, ch, indent+1, depth)
	}
	fmt.Fprintf(b, "%send loop;\n", pad)
}
