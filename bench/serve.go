package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/nodestore"
	"repro/internal/sdfio"
	"repro/internal/service"
)

// sdfd-mix shape. The load comes from this one process: with two cores, two
// client goroutines on two connections leave the daemon's two workers the
// rest of the machine.
const (
	// serveRate is the offered rate, open loop. At 2000 rps a busy two-core
	// host sat at the knee: across ten seeded runs the median latency ranged
	// over 3x and the tail over 28x. At 1000 rps queueing still shows, but
	// runs repeat.
	serveRate    = 1000.0
	serveClients = 2
	// serveColdChecks is how many cold bodies are re-sent and compared with
	// the in-process compiler after the timed phase.
	serveColdChecks = 64
	// kneeP99 is the latency limit of the knee search: the highest rate
	// whose p99 stays under it without refused or failed requests.
	kneeP99 = 50 * time.Millisecond
)

// serveMix is the traffic: per ten requests one cold compile, six cache
// hits on the example systems, two single-actor-rename edits and one grid
// burst (load.NewWorkload's kinds).
var serveMix = load.Mix{Cold: 1, Warm: 6, Edit: 2, Grid: 1}

// Span headers carry the client's root span to the in-process server's
// handler span in a traced run.
const (
	spanHeader = "X-Bench-Span"
	opHeader   = "X-Bench-Op"
)

// daemon is a compile server under test: a spawned sdfd, or an in-process
// service.Server behind an httptest server.
type daemon struct {
	url    string
	client *http.Client
	dir    string

	cmd    *exec.Cmd
	exited chan error
	stderr bytes.Buffer

	srv *service.Server
	hs  *httptest.Server
}

// startDaemon starts a server with a fresh pass-node store. An empty
// sdfdPath serves in process, with wrap (if non-nil) around the handler.
func startDaemon(ctx context.Context, sdfdPath string, wrap func(http.Handler) http.Handler) (*daemon, error) {
	dir, err := os.MkdirTemp("", "bench-sdfd-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	d.client = &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
	storeDir := filepath.Join(dir, "store")
	if sdfdPath == "" {
		store, err := nodestore.Open(storeDir, 256<<20)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.srv = service.New(service.Config{Workers: serveClients, NodeStore: store})
		h := d.srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		d.hs = httptest.NewServer(h)
		d.url = d.hs.URL
		return d, nil
	}

	ready := &readyWriter{ready: make(chan string, 1)}
	d.cmd = exec.Command(sdfdPath, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serveClients), "-store", storeDir)
	d.cmd.Stdout = ready
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		d.cmd = nil
		d.stop()
		return nil, fmt.Errorf("starting sdfd: %w", err)
	}
	d.exited = make(chan error, 1)
	// Ends when the process exits; stop makes sure it does.
	go func() { d.exited <- d.cmd.Wait() }()
	select {
	case addr := <-ready.ready:
		d.url = "http://" + addr
		return d, nil
	case err := <-d.exited:
		d.exited <- err
		d.stop()
		return nil, fmt.Errorf("sdfd exited before it was ready: %v: %s", err, d.stderr.String())
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("sdfd did not report SDFD_READY within 10s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// stop shuts the server down, waits for a spawned daemon to exit (SIGTERM,
// then SIGKILL after 15 s), and removes its store.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	if d.hs != nil {
		d.hs.Close()
		d.srv.Close()
	}
	if d.cmd != nil {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	os.RemoveAll(d.dir)
}

// readyWriter is a spawned sdfd's stdout: it reports the address of the
// SDFD_READY line once and discards everything else. Only the exec package's
// copying goroutine calls Write.
type readyWriter struct {
	buf   []byte
	ready chan string
	sent  bool
}

func (w *readyWriter) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if addr, ok := strings.CutPrefix(line, "SDFD_READY addr="); ok {
			w.ready <- strings.TrimSpace(addr)
			w.sent, w.buf = true, nil
			return len(p), nil
		}
	}
}

// post sends one op and returns the response status and body.
func (d *daemon) post(ctx context.Context, op load.Op, header http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+op.Path, bytes.NewReader(op.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// buildServeOps materializes the first n requests of the seeded workload,
// every body included, before any timing.
func buildServeOps(seed int64, n int) ([]load.Op, error) {
	wl, err := load.NewWorkload(seed, serveMix, 0)
	if err != nil {
		return nil, err
	}
	ops := make([]load.Op, n)
	for i := range ops {
		ops[i] = wl.Op(int64(i))
	}
	return ops, nil
}

// distinctOf returns one op per distinct warm, edit and grid body: the warm
// pass and the correctness check send each once.
func distinctOf(ops []load.Op) []load.Op {
	var out []load.Op
	seen := map[string]bool{}
	for _, op := range ops {
		if op.Kind != load.OpCold && !seen[string(op.Body)] {
			seen[string(op.Body)] = true
			out = append(out, op)
		}
	}
	return out
}

// warmPass sends every distinct non-cold body once, so the timed phase
// starts with the caches a long-running daemon would have.
func warmPass(ctx context.Context, d *daemon, ops []load.Op) error {
	for _, op := range ops {
		status, body, err := d.post(ctx, op, nil)
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm pass: %s: status %d: %s", op.Kind, status, body)
		}
	}
	return nil
}

// reqSample is one request's timing, relative to the loop's start.
type reqSample struct {
	kind   load.OpKind
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int // 0 when the request did not complete
}

// latency is timed from when the request was due, so a stall also charges
// the requests queued behind it.
func (s reqSample) latency() time.Duration { return s.done - s.due }

// openLoop sends ops at rate on a fixed schedule — op i is due at start +
// i/rate whatever happened to earlier ops — from serveClients goroutines.
// With tr non-nil every request is a root span whose id travels to the
// server in spanHeader.
func openLoop(ctx context.Context, d *daemon, ops []load.Op, rate float64, tr *tracer) []reqSample {
	out := make([]reqSample, len(ops))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := reqSample{kind: ops[i].Kind, due: time.Duration(i) * interval}
				if wait := time.Until(start.Add(s.due)); wait > 0 {
					select {
					case <-ctx.Done():
						out[i] = s
						continue
					case <-time.After(wait):
					}
				}
				s.sent = time.Since(start)
				var header http.Header
				root := 0
				if tr != nil {
					root = tr.begin(int64(i), 0, "op")
					header = http.Header{spanHeader: {strconv.Itoa(root)}, opHeader: {strconv.Itoa(i)}}
				}
				status, _, err := d.post(ctx, ops[i], header)
				if tr != nil {
					tr.end(root)
				}
				s.done = time.Since(start)
				if err == nil {
					s.status = status
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// spanHandler records the server side of a traced request as a child of the
// client's root span.
func spanHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		id := tr.begin(op, parent, "service.handler")
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// loopStats reduces the samples of one open-loop phase.
type loopStats struct {
	n, failed int64
	lat       []float64 // ms from due time
	byKind    map[string][]float64
	late      []float64 // ms the send ran behind its due time
	achieved  float64   // requests completed per second of the phase
}

func summarize(samples []reqSample) loopStats {
	st := loopStats{n: int64(len(samples)), byKind: map[string][]float64{}}
	var end time.Duration
	for _, s := range samples {
		if s.status != http.StatusOK {
			// Refused (429/503), failed and unfinished requests all count
			// as failed: each misses any latency limit.
			st.failed++
		}
		l := ms(s.latency())
		st.lat = append(st.lat, l)
		st.byKind[s.kind.String()] = append(st.byKind[s.kind.String()], l)
		st.late = append(st.late, ms(s.sent-s.due))
		end = max(end, s.done)
	}
	st.achieved = ratio(float64(st.n), end.Seconds())
	return st
}

// serveTotalOps is how many requests a run materializes: the untraced run
// sends rate×seconds; a traced run's four phases (reference, knee search at
// up to four times the rate, in-process untraced and traced) send at most
// twice that.
func serveTotalOps(cfg config, rate float64) int {
	n := rate * cfg.seconds
	if cfg.trace {
		n *= 2
	}
	return int(n) + 1
}

func serveRateFor(cfg config) float64 {
	if cfg.short {
		return 200
	}
	return serveRate
}

func runSdfdMix(ctx context.Context, cfg config) (*result, error) {
	rate := serveRateFor(cfg)
	type state struct {
		ops []load.Op
		d   *daemon
	}
	st, teardown, setup, err := repeatSetup(setupCount(cfg), func() (*state, func(), error) {
		ops, err := buildServeOps(cfg.seed, serveTotalOps(cfg, rate))
		if err != nil {
			return nil, nil, err
		}
		d, err := startDaemon(ctx, cfg.sdfd, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := warmPass(ctx, d, distinctOf(ops)); err != nil {
			d.stop()
			return nil, nil, err
		}
		return &state{ops, d}, d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	res := newResult(cfg.trace)
	timed := st.ops[:int(rate*cfg.seconds)]
	if cfg.trace {
		timed, err = traceSdfdMix(ctx, cfg, st.d, st.ops, rate, res)
		if err != nil {
			return nil, err
		}
	} else {
		ls := summarize(openLoop(ctx, st.d, timed, rate, nil))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.attempted, res.failed = ls.n, ls.failed
		res.set("setup_s", setup)
		res.set("op_ms", median(ls.lat))
		res.note("ops_per_s", ls.achieved, "1/s")
		for _, k := range []load.OpKind{load.OpCold, load.OpWarm, load.OpEdit, load.OpGrid} {
			res.note("request."+k.String()+"_p50_ms", median(ls.byKind[k.String()]), "ms")
		}
		for _, q := range []float64{90, 95, 99} {
			res.note(fmt.Sprintf("request_p%.0f_ms", q), quantile(ls.lat, q/100), "ms")
		}
		res.note("gen_late_p99_ms", quantile(ls.late, 0.99), "ms")
	}
	checked, bad, err := verifyServe(ctx, st.d, distinctOf(st.ops), coldSample(timed, cfg.seed))
	if err != nil {
		return nil, err
	}
	res.attempted += checked
	res.failed += bad
	return res, nil
}

// coldSample picks serveColdChecks cold ops of the timed phase, seeded.
func coldSample(ops []load.Op, seed int64) []load.Op {
	var cold []load.Op
	for _, op := range ops {
		if op.Kind == load.OpCold {
			cold = append(cold, op)
		}
	}
	rng := rand.New(rand.NewSource(seed + 3))
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	return cold[:min(serveColdChecks, len(cold))]
}

// verifyServe re-sends ops and compares every artifact in each response
// with service.CompileArtifact's in-process output for the same graph and
// options. It returns the requests sent and how many did not match.
func verifyServe(ctx context.Context, d *daemon, distinct, cold []load.Op) (int64, int64, error) {
	var sent, bad int64
	for _, op := range append(append([]load.Op(nil), distinct...), cold...) {
		sent++
		status, body, err := d.post(ctx, op, nil)
		if err != nil || status != http.StatusOK {
			bad++
			continue
		}
		ok, err := matchesInProcess(op, body)
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			bad++
		}
	}
	return sent, bad, nil
}

func matchesInProcess(op load.Op, body []byte) (bool, error) {
	switch op.Path {
	case "/v1/compile":
		var req service.CompileRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return false, err
		}
		var resp service.CompileResponse
		if json.Unmarshal(body, &resp) != nil {
			return false, nil
		}
		want, err := referenceArtifact(req.Graph, req.Options)
		return bytes.Equal(resp.Artifact, want), err
	case "/v1/grid":
		var req service.GridRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return false, err
		}
		var resp service.GridResponse
		if json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(req.Entries) {
			return false, nil
		}
		for i, e := range req.Entries {
			want, err := referenceArtifact(req.Graph, e)
			if err != nil {
				return false, err
			}
			if resp.Results[i].Error != nil || !bytes.Equal(resp.Results[i].Artifact, want) {
				return false, nil
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("no reference for path %s", op.Path)
	}
}

// referenceArtifact compiles graph text the way the service does — canonical
// text, parsed — but in process.
func referenceArtifact(text string, opts service.CompileOptions) ([]byte, error) {
	canonical, err := sdfio.Canonicalize(text)
	if err != nil {
		return nil, err
	}
	g, err := sdfio.Parse(strings.NewReader(canonical))
	if err != nil {
		return nil, err
	}
	data, _, err := service.CompileArtifact(g, opts)
	return data, err
}

// traceSdfdMix splits the run into four phases: the untraced open loop
// against the daemon (per-kind latencies, /metrics deltas), a knee search on
// the same daemon, then the same loop against an in-process server, first
// untraced and then traced. It returns the reference phase's ops, from which
// the correctness check samples.
func traceSdfdMix(ctx context.Context, cfg config, d *daemon, ops []load.Op, rate float64, res *result) ([]load.Op, error) {
	distinct := distinctOf(ops)
	phase := cfg.phase(4)
	n := int(rate * phase.Seconds())
	take := func(k int) []load.Op {
		k = min(k, len(ops))
		out := ops[:k]
		ops = ops[k:]
		return out
	}

	sender := &load.HTTPSender{BaseURL: d.url, Client: d.client}
	before, err := sender.Metrics()
	if err != nil {
		return nil, err
	}
	refOps := take(n)
	ref := summarize(openLoop(ctx, d, refOps, rate, nil))
	after, err := sender.Metrics()
	if err != nil {
		return nil, err
	}
	for _, k := range []load.OpKind{load.OpCold, load.OpWarm, load.OpEdit, load.OpGrid} {
		res.set("sdfd."+k.String()+"_p50_ms", median(ref.byKind[k.String()]))
	}
	res.set("sdfd.request_p99_ms", quantile(ref.lat, 0.99))
	res.set("load.gen_late_p99_ms", quantile(ref.late, 0.99))
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	res.set("service.cache_hit_ratio", ratio(hits, hits+misses))
	res.set("service.pipeline_runs_per_kreq", 1000*ratio(after.PipelineRuns-before.PipelineRuns, float64(ref.n)))
	res.set("service.shed_frac", ratio(after.LoadShed-before.LoadShed, float64(ref.n)))
	attempted, failed := ref.n, ref.failed

	// Knee: bisect between the offered rate and four times it, one third
	// of the phase per step.
	lo, hi := rate, 4*rate
	step := phase / 3
	for i := 0; i < 3; i++ {
		mid := (lo + hi) / 2
		ls := summarize(openLoop(ctx, d, take(int(mid*step.Seconds())), mid, nil))
		if ls.failed == 0 && quantile(ls.lat, 0.99) <= ms(kneeP99) {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.set("sdfd.knee_rps", lo)

	tr := newTracer()
	local, err := startDaemon(ctx, "", func(h http.Handler) http.Handler { return spanHandler(tr, h) })
	if err != nil {
		return nil, err
	}
	defer local.stop()
	if err := warmPass(ctx, local, distinct); err != nil {
		return nil, err
	}
	plain := summarize(openLoop(ctx, local, take(n), rate, nil))
	tracedOps := take(n)
	traced := summarize(openLoop(ctx, local, tracedOps, rate, tr))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	attempted += plain.n + traced.n
	failed += plain.failed + traced.failed
	res.attempted, res.failed = attempted, failed

	sum := tr.summary()
	res.set("service.framing_us", 1000*median(traced.byKind[load.OpWarm.String()]))
	encode, err := encodeCost(tracedOps)
	if err != nil {
		return nil, err
	}
	cold := float64(len(traced.byKind[load.OpCold.String()]))
	res.set("service.encode.us", us(encode))
	res.set("service.encode.share", ratio(cold*float64(encode), float64(sum.get("op").dur)))
	res.set("trace.coverage", sum.coverage())
	res.set("trace.overhead", ratio(median(traced.lat), median(plain.lat)))
	return refOps, tr.write(cfg.traceDir, "sdfd-mix", res.metrics)
}

// encodeCost is the mean time service.ArtifactBytes takes on the cold
// graphs among ops, re-measured in process: the server's own encode is not
// visible from outside it.
func encodeCost(ops []load.Op) (time.Duration, error) {
	opts, err := defaultOptions()
	if err != nil {
		return 0, err
	}
	var total time.Duration
	n := 0
	for _, op := range ops {
		if op.Kind != load.OpCold || n == serveColdChecks {
			continue
		}
		var req service.CompileRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return 0, err
		}
		g, err := sdfio.Parse(strings.NewReader(req.Graph))
		if err != nil {
			return 0, err
		}
		r, err := core.CompileGeneral(g, serviceDefaults)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := service.ArtifactBytes(r, opts); err != nil {
			return 0, err
		}
		total += time.Since(t0)
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return total / time.Duration(n), nil
}
