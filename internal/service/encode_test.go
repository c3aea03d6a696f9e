package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// raceEnabled is set by race_test.go in a -race build, where allocation
// counts are not exact.
var raceEnabled bool

// marshalOracle is the encoding the artifact encoder must reproduce.
func marshalOracle(t testing.TB, a *Artifact) []byte {
	t.Helper()
	want, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// hardString holds every byte class the string escaping treats apart: HTML
// characters, quotes and backslashes, short and \u00XX control escapes, DEL,
// multi-byte runes, U+2028/U+2029, a literal U+FFFD and invalid UTF-8.
const hardString = "a<b>&c\"d\\e\b\f\n\r\t\x00\x01\x1f\x7f \u00e9 \u4e16 \u2028\u2029\ufffd \xff\xc3 end"

// fillNonZero sets every field reachable from v to a non-zero value: strings
// to hardString tagged with a counter, integers to alternating-sign
// counters, booleans to true, slices to two filled elements, pointers to a
// filled value. A kind it does not know fails the test, so a field of a new
// kind cannot slip past the completeness check below.
func fillNonZero(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("%s#%d", hardString, *next))
	case reflect.Int, reflect.Int64:
		n := *next * 1000003
		if *next%2 == 0 {
			n = -n
		}
		v.SetInt(n)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), next)
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s is still zero", v.Type(), v.Type().Field(i).Name)
			}
		}
	default:
		t.Fatalf("fillNonZero: no rule for %s (kind %s)", v.Type(), v.Kind())
	}
}

// TestEncodeArtifactEveryField fills every field of Artifact, its nested
// structs and CompileOptions with non-zero values: a field added to any of
// them without a line in the encoder changes json.Marshal's bytes and fails
// here.
func TestEncodeArtifactEveryField(t *testing.T) {
	var a Artifact
	var next int64
	fillNonZero(t, reflect.ValueOf(&a).Elem(), &next)
	if got, want := encodeArtifact(&a), marshalOracle(t, &a); !bytes.Equal(got, want) {
		t.Fatalf("encoder differs from json.Marshal\n got %s\nwant %s", got, want)
	}
}

// TestEncodeArtifactEmptyAndExtremes covers what the filled artifact cannot:
// omitted fields, nil slices (null) against empty ones ([]), and integer
// extremes.
func TestEncodeArtifactEmptyAndExtremes(t *testing.T) {
	cases := map[string]*Artifact{
		"zero": {},
		"empty slices": {
			Order: []string{}, Repetitions: []ActorRepetition{}, Allocations: []AllocatorTotal{},
			Placements: []Placement{}, Partition: &ArtifactPartition{Segments: []ArtifactSegment{}},
			Options: CompileOptions{Allocators: []string{}},
		},
		"nil segments":    {Partition: &ArtifactPartition{}},
		"partial options": {Options: CompileOptions{Looping: "flat", EmitVHDL: true}},
		"extremes": {
			Actors: math.MaxInt, Edges: math.MinInt,
			Metrics:     ArtifactMetrics{BMLB: math.MinInt64, MCO: math.MaxInt64, ParallelTotal: -1},
			Repetitions: []ActorRepetition{{Q: 0}, {Q: 9}, {Q: 10}, {Q: -10}, {Q: math.MinInt64 + 1}},
		},
	}
	for name, a := range cases {
		if got, want := encodeArtifact(a), marshalOracle(t, a); !bytes.Equal(got, want) {
			t.Errorf("%s: encoder differs from json.Marshal\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestArtifactBytesMatchesMarshal compiles every Table-1 system under the
// default, emit_c+emit_vhdl, partitions 2+emit_c and verify options, and
// the random graphs of the compile benchmark's size ladder under the
// default, and checks each artifact against json.Marshal of the same
// Artifact.
func TestArtifactBytesMatchesMarshal(t *testing.T) {
	type job struct {
		g    *sdf.Graph
		opts CompileOptions
	}
	var jobs []job
	for _, opts := range []CompileOptions{
		{},
		{EmitC: true, EmitVHDL: true},
		{Partitions: 2, EmitC: true},
		{Verify: true},
	} {
		for _, g := range systems.Table1Systems() {
			jobs = append(jobs, job{g, opts})
		}
	}
	ladder := []int{20, 39, 57, 76, 94, 113, 131, 150}
	if testing.Short() {
		ladder = ladder[:3]
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range ladder {
			jobs = append(jobs, job{randsdf.Graph(rng, randsdf.Config{Actors: n}), CompileOptions{}})
		}
	}
	for _, j := range jobs {
		norm, err := normalize(j.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, res, err := CompileArtifact(j.g, j.opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", j.g.Name, j.opts, err)
		}
		if want := marshalOracle(t, buildArtifact(res, norm)); !bytes.Equal(got, want) {
			t.Fatalf("%s %+v: ArtifactBytes differs from json.Marshal", j.g.Name, j.opts)
		}
	}
}

// TestEncodeArtifactAllocatesOnce: the encoder writes into a pooled scratch
// buffer and copies the result out at its exact size, so once the pool
// holds a buffer, encoding allocates the output and nothing else. The race
// detector makes sync.Pool drop buffers at random, so the count is only
// exact without it.
func TestEncodeArtifactAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	_, res, err := CompileArtifact(systems.SatelliteReceiver(), CompileOptions{Partitions: 2, EmitC: true})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize(CompileOptions{Partitions: 2, EmitC: true})
	if err != nil {
		t.Fatal(err)
	}
	a := buildArtifact(res, norm)
	a.Graph = hardString // escapes must be copied out at their exact size too
	var out []byte
	if n := testing.AllocsPerRun(20, func() { out = encodeArtifact(a) }); n != 1 {
		t.Fatalf("encodeArtifact allocates %v times, want 1", n)
	}
	if len(out) != cap(out) {
		t.Fatalf("output length %d, capacity %d: the copy is not exact-size", len(out), cap(out))
	}
}

// TestArtifactBytesConcurrent encodes different Table-1 results from eight
// goroutines at once, 200 times each: every output must equal its serial
// encoding byte for byte, so no pooled buffer is shared between encodings
// or aliased by an output. Run it under -race.
func TestArtifactBytesConcurrent(t *testing.T) {
	type job struct {
		res  *core.Result
		opts CompileOptions
		want []byte
	}
	systems := systems.Table1Systems()
	var jobs []job
	for i := 0; i < 8; i++ {
		opts := CompileOptions{}
		if i%2 == 1 {
			opts = CompileOptions{Partitions: 2, EmitC: true}
		}
		norm, err := normalize(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, res, err := CompileArtifact(systems[i*len(systems)/8], opts)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{res, norm, want})
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				got, err := ArtifactBytes(j.res, j.opts)
				if err == nil && !bytes.Equal(got, j.want) {
					err = fmt.Errorf("encoding %d differs from the serial one", k)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s %+v: %v", jobs[i].res.Graph.Name, jobs[i].opts, err)
		}
	}
}

// FuzzArtifactString holds the encoder's string escaping to json.Marshal on
// arbitrary bytes.
func FuzzArtifactString(f *testing.F) {
	f.Add(hardString)
	f.Add("")
	f.Add(strings.Repeat("\xe2\x80", 3))
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendQuoted(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendQuoted(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}
