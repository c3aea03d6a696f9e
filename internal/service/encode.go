package service

import (
	"strconv"
	"sync"
	"unicode/utf8"
)

// The artifact encoder writes the bytes encoding/json's Marshal writes for
// *Artifact without reflection, whose walk would otherwise be the largest
// cost of a compile that loads every pass from the node store: the fields
// in declaration order, the omitempty and nil-slice (null) rules, and the
// string escaping (HTML-safe <, >, &, U+2028 and U+2029 escaped, \ufffd for
// invalid UTF-8, \u00XX for control bytes without a short escape). The
// tests hold it to json.Marshal on every artifact they compile and on an
// Artifact with every field set. It makes one walk, appending into a pooled
// scratch buffer, and returns an exact-size copy: the only allocation of an
// encoding once the pool holds a buffer large enough.

// maxPooled bounds the scratch buffers the pool keeps. A 150-actor artifact
// is about 18 KiB; a buffer grown past the bound, such as one that held a
// large graph's generated C, is dropped after its encoding, not kept.
const maxPooled = 64 << 10

var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeArtifact returns the JSON encoding of a.
func encodeArtifact(a *Artifact) []byte {
	buf := scratchPool.Get().(*[]byte)
	w := jsonWriter{b: (*buf)[:0]}
	w.artifact(a)
	out := make([]byte, len(w.b))
	copy(out, w.b)
	if cap(w.b) <= maxPooled {
		*buf = w.b
	}
	scratchPool.Put(buf)
	return out
}

// jsonWriter appends JSON text to b. Keys are written as literals together
// with their separators.
type jsonWriter struct {
	b []byte
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) str(s string) { w.b = appendQuoted(w.b, s) }

func (w *jsonWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

// array writes s as a JSON array, or null for a nil slice as encoding/json
// does.
func array[T any](w *jsonWriter, s []T, each func(*T)) {
	if s == nil {
		w.raw("null")
		return
	}
	w.raw("[")
	for i := range s {
		if i > 0 {
			w.raw(",")
		}
		each(&s[i])
	}
	w.raw("]")
}

func (w *jsonWriter) artifact(a *Artifact) {
	w.raw(`{"schema":`)
	w.str(a.Schema)
	w.raw(`,"graph":`)
	w.str(a.Graph)
	w.raw(`,"actors":`)
	w.int(int64(a.Actors))
	w.raw(`,"edges":`)
	w.int(int64(a.Edges))
	w.raw(`,"options":`)
	w.options(&a.Options)
	w.raw(`,"schedule":`)
	w.str(a.Schedule)
	if len(a.Order) > 0 {
		w.raw(`,"order":`)
		array(w, a.Order, func(s *string) { w.str(*s) })
	}
	w.raw(`,"repetitions":`)
	array(w, a.Repetitions, func(r *ActorRepetition) {
		w.raw(`{"actor":`)
		w.str(r.Actor)
		w.raw(`,"q":`)
		w.int(r.Q)
		w.raw("}")
	})
	w.raw(`,"metrics":`)
	w.metrics(&a.Metrics)
	w.raw(`,"allocations":`)
	array(w, a.Allocations, func(t *AllocatorTotal) {
		w.raw(`{"allocator":`)
		w.str(t.Allocator)
		w.raw(`,"total":`)
		w.int(t.Total)
		w.raw("}")
	})
	w.raw(`,"best":`)
	w.str(a.Best)
	w.raw(`,"placements":`)
	array(w, a.Placements, func(p *Placement) {
		w.raw(`{"buffer":`)
		w.str(p.Buffer)
		w.raw(`,"offset":`)
		w.int(p.Offset)
		w.raw(`,"size":`)
		w.int(p.Size)
		w.raw("}")
	})
	if a.Partition != nil {
		w.raw(`,"partition":`)
		w.partition(a.Partition)
	}
	if a.C != "" {
		w.raw(`,"c":`)
		w.str(a.C)
	}
	if a.ThreadedC != "" {
		w.raw(`,"threaded_c":`)
		w.str(a.ThreadedC)
	}
	if a.VHDL != "" {
		w.raw(`,"vhdl":`)
		w.str(a.VHDL)
	}
	w.raw("}")
}

// options writes CompileOptions, whose every field is omitempty, so the
// separator before each key depends on what came before it.
func (w *jsonWriter) options(o *CompileOptions) {
	sep := "{"
	key := func(k string) {
		w.raw(sep)
		w.raw(k)
		sep = ","
	}
	if o.Strategy != "" {
		key(`"strategy":`)
		w.str(o.Strategy)
	}
	if o.Looping != "" {
		key(`"looping":`)
		w.str(o.Looping)
	}
	if len(o.Allocators) > 0 {
		key(`"allocators":`)
		array(w, o.Allocators, func(s *string) { w.str(*s) })
	}
	if o.Verify {
		key(`"verify":true`)
	}
	if o.VerifyPeriods != 0 {
		key(`"verify_periods":`)
		w.int(int64(o.VerifyPeriods))
	}
	if o.Merging {
		key(`"merging":true`)
	}
	if o.EmitC {
		key(`"emit_c":true`)
	}
	if o.EmitVHDL {
		key(`"emit_vhdl":true`)
	}
	if o.Partitions != 0 {
		key(`"partitions":`)
		w.int(int64(o.Partitions))
	}
	if sep == "{" {
		w.raw("{")
	}
	w.raw("}")
}

func (w *jsonWriter) metrics(m *ArtifactMetrics) {
	w.raw(`{"bmlb":`)
	w.int(m.BMLB)
	w.raw(`,"non_shared_bufmem":`)
	w.int(m.NonSharedBufMem)
	w.raw(`,"dp_cost":`)
	w.int(m.DPCost)
	w.raw(`,"mco":`)
	w.int(m.MCO)
	w.raw(`,"mcp":`)
	w.int(m.MCP)
	w.raw(`,"shared_total":`)
	w.int(m.SharedTotal)
	w.raw(`,"merged_total":`)
	w.int(m.MergedTotal)
	w.raw(`,"merges":`)
	w.int(int64(m.Merges))
	if m.ParallelTotal != 0 {
		w.raw(`,"parallel_total":`)
		w.int(m.ParallelTotal)
	}
	w.raw("}")
}

func (w *jsonWriter) partition(p *ArtifactPartition) {
	w.raw(`{"workers":`)
	w.int(int64(p.Workers))
	w.raw(`,"phases":`)
	w.int(int64(p.Phases))
	w.raw(`,"sas_total":`)
	w.int(p.SASTotal)
	w.raw(`,"parallel_total":`)
	w.int(p.ParallelTotal)
	w.raw(`,"segments":`)
	array(w, p.Segments, func(s *ArtifactSegment) {
		w.raw(`{"worker":`)
		w.int(int64(s.Worker))
		w.raw(`,"base":`)
		w.int(s.Base)
		w.raw(`,"cells":`)
		w.int(s.Cells)
		w.raw("}")
	})
	w.raw("}")
}

// asciiSafe holds the ASCII bytes that pass through a JSON string as they
// are: not the control bytes, the quote and the backslash, nor <, > and &,
// which are escaped for HTML safety.
var asciiSafe = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendQuoted appends s as a JSON string exactly as encoding/json's
// Marshal writes it.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if asciiSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
