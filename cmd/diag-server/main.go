// Command diag-server runs the DiAG simulation service: a long-running
// HTTP/JSON API where clients submit programs plus machine
// configurations and get back runs, sweeps, fault campaigns, and
// differential-conformance jobs — with coalescing of identical jobs, a
// content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	diag-server [-addr :8080] [-parallel N] [-cache-entries N]
//	            [-queue-depth N] [-timeout D] [-drain-timeout D]
//	            [-no-observe]
//
// The server announces its listen address on stderr ("diag-server:
// listening on http://HOST:PORT"), which makes -addr :0 usable from
// scripts. SIGINT/SIGTERM trigger a graceful drain: new submissions are
// rejected with 503, in-flight simulations finish (up to
// -drain-timeout), and the process exits 0.
//
// See docs/SERVER.md for the API reference and a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"diag/internal/cliutil"
	"diag/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("diag-server", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	parallel := fs.Int("parallel", 0, "worker pool size: max concurrent simulations (0 = GOMAXPROCS)")
	cacheEntries := fs.Int("cache-entries", 1024, "result cache capacity (negative disables)")
	queueDepth := fs.Int("queue-depth", 1024, "simulations that may wait for a worker (full queue => 503)")
	timeout := fs.Duration("timeout", 0, "per-simulation wall-clock budget, counted from admission (0 = unbounded)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	noObserve := fs.Bool("no-observe", false, "skip per-run observability (faster; /metrics loses obsv/* series)")
	fs.Parse(os.Args[1:])

	srv := server.New(server.Config{
		Workers:      *parallel,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		JobTimeout:   *timeout,
		NoObserve:    *noObserve,
	})
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diag-server: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "diag-server: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, cancel := cliutil.SignalContext(context.Background())
	defer cancel()
	select {
	case <-ctx.Done():
		// Graceful drain: finish in-flight work, then stop the listener.
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "diag-server: %v\n", err)
		return 1
	}

	fmt.Fprintln(os.Stderr, "diag-server: draining")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "diag-server: drain: %v\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "diag-server: shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "diag-server: exit")
	return 0
}
