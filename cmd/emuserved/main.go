// Command emuserved serves simulations over HTTP: clients POST declarative
// jobspec requests and the server multiplexes them across a shared bounded
// worker pool, caches results by content address, and survives restarts —
// jobs in flight when the process dies resume from their write-ahead logs
// with byte-identical figures.
//
// Usage:
//
//	emuserved -addr :8080 -data /var/lib/emuserved -workers 2 -job-parallel 4
//
// See README.md ("Serving simulations" and "Operating emuserved") for the
// API walkthrough and the overload/drain semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"emuchick/internal/jobserver"
)

func main() {
	fs := flag.NewFlagSet("emuserved", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	data := fs.String("data", "emuserved-data", "durable data directory: the journal of job records and results, and per-job WALs in ckpt/")
	workers := fs.Int("workers", 2, "jobs simulated concurrently")
	jobParallel := fs.Int("job-parallel", defaultJobParallel(), "sweep workers per job when the jobspec does not set -parallel")
	queue := fs.Int("queue", 1024, "pending-job backlog bound (submits beyond it are shed with 503 + Retry-After)")
	inflight := fs.Int64("max-inflight-bytes", 0, "encoded-spec byte budget across admitted jobs; 0 is unlimited")
	retryAfter := fs.Duration("retry-after", time.Second, "backoff hint attached to shed submits")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "per-request header read deadline")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline")
	watchTimeout := fs.Duration("watch-write-timeout", 10*time.Second, "per-update write deadline on /watch streams")
	drainGrace := fs.Duration("drain-grace", 2*time.Second, "pause between flipping /readyz and closing the listener, so front-ends stop routing first")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "emuserved: HTTP job server for emuchick simulations\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	logger := log.New(os.Stderr, "emuserved: ", log.LstdFlags)
	srv, err := jobserver.New(jobserver.Config{
		DataDir:           *data,
		Workers:           *workers,
		ParallelPerJob:    *jobParallel,
		QueueDepth:        *queue,
		MaxInflightBytes:  *inflight,
		RetryAfter:        *retryAfter,
		WatchWriteTimeout: *watchTimeout,
		Logf:              func(format string, args ...any) { logger.Printf(format, args...) },
	})
	if err != nil {
		logger.Fatal(err)
	}

	// Zero-value http.Server timeouts mean "forever": a client that never
	// sends its headers, or a keep-alive connection that never speaks again,
	// would pin a connection for the life of the process. Body reads are
	// bounded per-handler (submit caps its body; watch/wait are deliberately
	// long-lived), so ReadHeaderTimeout + IdleTimeout are the right scope —
	// a whole-request WriteTimeout would kill legitimate watch streams.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on http://%s (data %s)", *addr, *data)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		// Graceful drain, front-end first: flip /readyz and shed new submits,
		// give load balancers drain-grace to notice, then close the listener
		// and preempt running jobs (their WALs keep finished cells; the next
		// boot resumes them).
		logger.Printf("draining (grace %s)", *drainGrace)
		srv.BeginDrain()
		time.Sleep(*drainGrace)
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			logger.Printf("close: %v", err)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			logger.Fatal(err)
		}
	}
}

// defaultJobParallel splits the machine between concurrent jobs without
// oversubscribing a small box.
func defaultJobParallel() int {
	if n := runtime.GOMAXPROCS(0) / 2; n > 1 {
		return n
	}
	return 1
}
