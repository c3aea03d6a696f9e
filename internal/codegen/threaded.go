package codegen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
)

// GenerateThreadedC renders a partitioned compilation result (Partitions >= 2)
// as a self-contained pthread C program implementing the barrier-phased
// parallel runtime: one function per worker, each firing its per-phase blocks
// and passing a cyclic barrier after every phase, with edge buffers placed at
// their absolute offsets inside the segmented memory image. The barrier is
// hand-rolled over a mutex and condition variable — pthread_barrier_t is an
// optional POSIX feature and the mutex version is portable everywhere
// pthreads exist.
//
// Actor bodies match GenerateC (output token i carries the firing's input sum
// plus i), and every firing folds its input sum into a per-actor check_
// accumulator printed at exit, so the program's output is a deterministic
// function of the graph alone — the reference interpreter reproduces it
// exactly, independent of worker interleaving. Returns "" when res carries no
// partitioned schedule or its segmented image does not hold every buffer.
func GenerateThreadedC(res *core.Result) string {
	if res.Partition == nil || res.Segmented == nil {
		return ""
	}
	prog, err := partition.Phased(res.Graph, res.Partition, res.Segmented)
	if err != nil {
		return ""
	}
	g := res.Graph
	var b strings.Builder
	fmt.Fprintf(&b, "/* Generated threaded shared-memory implementation of SDF graph %q.\n", g.Name)
	fmt.Fprintf(&b, " * Workers: %d, phases per period: %d (barrier after every phase).\n",
		prog.P, len(prog.Phases))
	fmt.Fprintf(&b, " * Segmented buffer memory: %d cells (sequential SAS needs %d).\n",
		prog.Total, res.Best.Total)
	b.WriteString(" */\n\n#include <pthread.h>\n#include <stdio.h>\n\ntypedef double token_t;\n\n")
	fmt.Fprintf(&b, "#define WORKERS %d\n", prog.P)
	writeMem(&b, prog.Total)

	// Segment map (informational) and edge buffers at absolute offsets.
	b.WriteString("/* Segments: private per worker, one shared region for cross-worker edges. */\n")
	for _, s := range res.Segmented.Segments {
		owner := fmt.Sprintf("worker %d", s.Worker)
		if s.Worker == partition.SharedWorker {
			owner = "shared"
		}
		fmt.Fprintf(&b, "/*   [%d, %d) %s */\n", s.Base, s.Base+s.Cells, owner)
	}
	b.WriteString("\n/* Edge buffers: absolute offset and size inside the segmented image. */\n")
	writeBuffers(&b, g, &prog.Layout)
	b.WriteString("/* Per-actor checksums: each firing folds its input sum in. */\n")
	for _, a := range g.Actors() {
		fmt.Fprintf(&b, "static token_t check_%s;\n", sanitize(a.Name))
	}

	// Cyclic barrier over mutex + condvar (generation counter handles reuse).
	b.WriteString(`
static pthread_mutex_t bar_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t bar_cv = PTHREAD_COND_INITIALIZER;
static int bar_waiting;
static unsigned long bar_gen;

static void barrier_await(void) {
    pthread_mutex_lock(&bar_mu);
    unsigned long gen = bar_gen;
    if (++bar_waiting == WORKERS) {
        bar_waiting = 0;
        bar_gen++;
        pthread_cond_broadcast(&bar_cv);
    } else {
        while (bar_gen == gen)
            pthread_cond_wait(&bar_cv, &bar_mu);
    }
    pthread_mutex_unlock(&bar_mu);
}

`)

	// Actor firing functions: GenerateC bodies plus the checksum fold. Each
	// edge's cursors are touched by exactly one worker (same-phase edges are
	// intra-worker; cross-phase access is barrier-ordered), so no locking.
	for _, a := range g.Actors() {
		writeFire(&b, g, &prog.Layout, a.ID)
		fmt.Fprintf(&b, "    check_%s += acc;\n", sanitize(a.Name))
		b.WriteString("}\n\n")
	}

	// One function per worker: its per-phase firing blocks, a barrier after
	// every phase, all periods inside (the last phase's barrier separates
	// consecutive periods).
	for w := 0; w < prog.P; w++ {
		fmt.Fprintf(&b, "static void *worker_%d(void *arg) {\n    (void)arg;\n", w)
		b.WriteString("    for (int period = 0; period < 4; period++) {\n")
		for ph, workers := range prog.Phases {
			fmt.Fprintf(&b, "        /* phase %d */\n", ph)
			for bi, blk := range workers[w] {
				name := sanitize(g.Actor(blk.Actor).Name)
				if blk.Count == 1 {
					fmt.Fprintf(&b, "        fire_%s();\n", name)
					continue
				}
				fmt.Fprintf(&b, "        for (long b%d = 0; b%d < %d; b%d++) fire_%s();\n",
					bi, bi, blk.Count, bi, name)
			}
			b.WriteString("        barrier_await();\n")
		}
		b.WriteString("    }\n    return 0;\n}\n\n")
	}

	// Main: seed initial tokens, run the workers, print the checksums in
	// actor order.
	b.WriteString("int main(void) {\n")
	writeDelays(&b, g)
	b.WriteString("    pthread_t tid[WORKERS];\n")
	for w := 0; w < prog.P; w++ {
		fmt.Fprintf(&b, "    pthread_create(&tid[%d], 0, worker_%d, 0);\n", w, w)
	}
	b.WriteString("    for (int w = 0; w < WORKERS; w++) pthread_join(tid[w], 0);\n")
	for _, a := range g.Actors() {
		name := sanitize(a.Name)
		fmt.Fprintf(&b, "    printf(\"check_%s = %%.17g\\n\", (double)check_%s);\n", name, name)
	}
	b.WriteString("    return 0;\n}\n")
	return b.String()
}
