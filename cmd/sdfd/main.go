// Command sdfd serves the SDF shared-memory synthesis pipeline over HTTP.
//
// It is a long-running daemon wrapping the same compilation pipeline as
// sdfc: POST an .sdf program to /v1/compile and receive the schedule,
// allocation table, buffer-memory statistics, and (optionally) generated
// C/VHDL as a JSON artifact. Identical requests are collapsed onto one
// pipeline run and served from a content-addressed cache; see
// docs/SERVICE.md for the API and cache semantics.
//
// Usage:
//
//	sdfd [-addr :8347] [-workers N] [-queue N] [-cache-mb N]
//	     [-request-timeout D] [-compile-timeout D] [-max-request-kb N]
//	     [-store DIR] [-store-mb N]
//	     [-peers a,b,c] [-advertise host:port] [-drain D]
//
// On startup the daemon prints one machine-readable line to stdout:
//
//	SDFD_READY addr=<host:port>
//
// carrying the resolved listen address. Pass "-addr 127.0.0.1:0" to bind an
// ephemeral port and read the line to find it — sdfload -spawn and
// make load-short rely on this.
//
// With -store, compiled pass-stage artifacts persist in a content-addressed
// on-disk store and survive daemon restarts: recompiling a graph after a
// small edit loads every unaffected pipeline stage from disk instead of
// executing it (docs/PIPELINE.md, "Incremental recompilation").
//
// With -peers, the daemon joins a sharded cluster: the listed members (plus
// this node) form a consistent-hash ring over artifact digests, every
// route's cache misses are dispatched to their digest's owner, an owner's
// misses try peer fetch before recompiling, and async grid jobs (POST
// /v1/jobs/grid) spread their entries across the membership
// (docs/SERVICE.md, "Cluster mode"). On
// SIGINT/SIGTERM a clustered or job-serving daemon drains gracefully: new
// work is refused with 503, /healthz flips to 503 so peers rotate it out,
// and in-flight async jobs get up to -drain to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/nodestore"
	"repro/internal/service"
)

func main() {
	fs := flag.NewFlagSet("sdfd", flag.ContinueOnError)
	addr := fs.String("addr", ":8347", "listen address")
	workers := fs.Int("workers", 0, "compile worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 2x workers)")
	cacheMB := fs.Int64("cache-mb", 64, "artifact cache budget in MiB (negative disables)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request deadline")
	compTimeout := fs.Duration("compile-timeout", 60*time.Second, "per-pipeline-run deadline")
	maxKB := fs.Int64("max-request-kb", 1024, "request body limit in KiB")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503")
	gridMax := fs.Int("grid-max-entries", 64, "maximum option entries per /v1/grid request")
	maxJobs := fs.Int("max-jobs", 8, "maximum concurrently running async grid jobs")
	jobMax := fs.Int("job-max-entries", 4096, "maximum option entries per /v1/jobs/grid request")
	storeDir := fs.String("store", "", "persistent pass-node store directory (empty disables)")
	storeMB := fs.Int64("store-mb", 256, "pass-node store budget in MiB (<= 0 disables)")
	peers := fs.String("peers", "", "comma-separated cluster members (host:port); empty runs single-node")
	advertise := fs.String("advertise", "", "this node's identity as peers spell it (default: resolved listen address)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "peer healthz probe period")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown grace period for in-flight async jobs")
	if code := core.ParseCLI(fs, os.Args[1:]); code >= 0 {
		os.Exit(code)
	}

	cacheBudget := *cacheMB << 20
	if *cacheMB < 0 {
		cacheBudget = -1
	}
	var store *nodestore.Store
	if *storeDir != "" {
		var err error
		store, err = nodestore.Open(*storeDir, *storeMB<<20)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdfd: opening pass-node store: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "sdfd: pass-node store at %s (%d frames, %d bytes)\n",
			*storeDir, store.Stats().Entries, store.Stats().Bytes)
	}

	// Listen before building the service: with -peers, the node's advertised
	// ring identity defaults to the *resolved* listen address, which only
	// exists once the socket is bound (matters for "-addr 127.0.0.1:0").
	// The resolved address also goes to stdout as a machine-readable
	// readiness line that supervisors — sdfload -spawn, make load-short,
	// scripts/cluster-smoke.sh — parse to find the daemon.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdfd: %v\n", err)
		os.Exit(1)
	}

	var clusterCfg *service.ClusterConfig
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = ln.Addr().String()
		}
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		clusterCfg = &service.ClusterConfig{
			Self:          self,
			Peers:         members,
			ProbeInterval: *probeInterval,
		}
		fmt.Fprintf(os.Stderr, "sdfd: cluster member %s of %v\n", self, members)
	}

	srv := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheBudget:     cacheBudget,
		RequestTimeout:  *reqTimeout,
		CompileTimeout:  *compTimeout,
		MaxRequestBytes: *maxKB << 10,
		RetryAfter:      *retryAfter,
		GridMaxEntries:  *gridMax,
		MaxJobs:         *maxJobs,
		JobMaxEntries:   *jobMax,
		NodeStore:       store,
		Cluster:         clusterCfg,
	})

	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Generous versus RequestTimeout: the handler enforces the real
		// deadline; these only bound pathological slow-loris clients.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("SDFD_READY addr=%s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "sdfd: listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "sdfd: %v\n", err)
		srv.Close()
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: refuse new work (and flip /healthz to 503 so peers
	// rotate this node out of their rings), give in-flight async jobs the
	// grace period, then shut the listener and the service down.
	fmt.Fprintln(os.Stderr, "sdfd: draining")
	srv.BeginDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	if err := srv.AwaitJobs(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "sdfd: drain: jobs still running after %v, shutting down anyway\n", *drain)
	}
	cancelDrain()
	fmt.Fprintln(os.Stderr, "sdfd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "sdfd: shutdown: %v\n", err)
	}
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "sdfd: %v\n", err)
		os.Exit(1)
	}
}
