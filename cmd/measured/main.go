// Command measured is the campaign service plane: a long-running
// daemon that executes measurement campaigns submitted over HTTP,
// tracks them in a persistent run store, streams live progress as SSE
// and serves on-demand analysis against each run's logstore-resident
// dataset. See docs/SERVICE.md for the API reference.
//
// Usage:
//
//	measured -addr 127.0.0.1:8080 -data /var/lib/measured
//
// Submit a campaign and watch it:
//
//	curl -X POST localhost:8080/runs -d '{"scenario":"flash-crowd","scale":0.1}'
//	curl -N localhost:8080/runs/flash-crowd-000001/events
//	curl -X POST localhost:8080/runs/flash-crowd-000001/query
//
// Rerun it, or calibrate it against the paper's observed dataset
// (see docs/CALIBRATION.md):
//
//	curl -X POST localhost:8080/runs/flash-crowd-000001/rerun
//	curl -X POST localhost:8080/runs/distributed-000001/calibrate
//
// Or drive it end to end with cmd/measure:
//
//	measure -submit http://localhost:8080 -scenario flash-crowd -scale 0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/svc"
)

// The daemon's connection limits. A client has readHeaderTimeout to
// send a request's header, and a keep-alive connection may sit idle for
// idleTimeout between requests. There is no write timeout: an SSE
// progress stream stays open for as long as its campaign runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the daemon's HTTP server over h, with its connection
// limits.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	dataDir := flag.String("data", "measured-data", "run store root directory")
	workers := flag.Int("workers", 2, "concurrent campaign workers")
	queueDepth := flag.Int("queue", 256, "accepted-but-not-started run capacity")
	simEvery := flag.Duration("sim-every", 0, "progress cadence in virtual time (0 = engine default, one virtual hour)")
	wallEvery := flag.Duration("wall-every", 200*time.Millisecond, "wall-clock progress throttle (negative disables)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("measured: ")

	service, err := svc.Open(svc.Config{
		DataDir:    *dataDir,
		Workers:    *workers,
		QueueDepth: *queueDepth,
		SimEvery:   *simEvery,
		WallEvery:  *wallEvery,
		Logf:       log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := newServer(svc.Handler(service))
	log.Printf("serving on http://%s (run store: %s, %d workers)", ln.Addr(), *dataDir, *workers)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%s: draining (in-flight campaigns abort into partial results)", s)
	case err := <-done:
		log.Printf("serve: %v", err)
	}

	// Drain the campaigns first: aborting them closes their notifiers,
	// which ends the open SSE streams, so the HTTP shutdown that follows
	// isn't stuck waiting on event handlers.
	if err := service.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Printf("stopped")
}
