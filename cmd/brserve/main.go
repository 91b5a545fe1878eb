// Command brserve exposes the experiment harness as an HTTP/JSON service:
// submit a run or figure request, get a content-addressed job ID, poll or
// stream progress, and download results (plus a Perfetto-loadable Chrome
// trace for traced runs). Identical requests dedupe to one job, and with
// -cache-dir every completed simulation point persists across restarts, so
// a warm request executes zero simulations.
//
//	brserve -cache-dir /var/cache/br &
//	curl -s localhost:8080/v1/jobs -d '{"version":1,"kind":"run","workload":"mcf_17","br":"mini"}'
//	curl -s localhost:8080/v1/jobs/<id>/result
//
// On SIGINT/SIGTERM the server drains: new submissions get 503, queued
// jobs are cancelled, and running jobs finish (bounded by -drain-timeout)
// before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		cacheDir     = flag.String("cache-dir", "", "persistent run cache directory (empty = no cache)")
		jobs         = flag.Int("j", 0, "simulations per job run concurrently (0 = GOMAXPROCS)")
		maxJobs      = flag.Int("max-jobs", 2, "jobs executing concurrently; further submissions queue")
		quick        = flag.Bool("quick", false, "reduced default budgets and small workload scale")
		traceDir     = flag.String("trace-dir", "", "directory of recorded *.btr traces served as trace:<name> workloads")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "how long shutdown waits for running jobs")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		CacheDir: *cacheDir,
		Jobs:     *jobs,
		MaxJobs:  *maxJobs,
		Quick:    *quick,
		TraceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "brserve: %v\n", err)
		os.Exit(2)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("brserve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "brserve: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("brserve: %v: draining (timeout %s)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "brserve: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "brserve: shutdown: %v\n", err)
	}
}
