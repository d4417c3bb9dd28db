// Command raprouter is the fleet front door: it consistent-hashes
// incoming jobs by their content address onto N rapserved workers,
// health-checks the workers, and requeues jobs around worker loss, one
// attempt at a time. It serves serve.NewServer(router), the HTTP surface
// rapserved serves over its runner: the same /v1/batch, /v1/jobs,
// /healthz and /metrics endpoints under the same request limits, but
// horizontally scalable and resilient to losing workers. A job that two
// workers die with is failed rather than offered to a third.
//
// Usage:
//
//	raprouter -addr :8080 -fleet http://w1:8081,http://w2:8082,http://w3:8083
//
// The routing key is the job's cache key — the same SHA-256 the
// workers' result caches and the persistent artifact store use — so
// identical work always lands where its result already lives (see
// DESIGN.md, "Fleet").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.String("fleet", "", "comma-separated rapserved base URLs (required)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per worker on the hash ring (0 = default)")
		attempts  = flag.Int("attempts", 0, "max distinct workers tried per job (0 = all)")
		reqWait   = flag.Duration("request-timeout", 60*time.Second, "per-forwarded-request ceiling")
		healthInt = flag.Duration("health-interval", time.Second, "worker liveness probe period")
		inflight  = flag.Int("max-inflight", 0, "concurrently forwarded jobs (0 = 256)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before giving up")
	)
	flag.Parse()
	if flag.NArg() != 0 || *workers == "" {
		fmt.Fprintln(os.Stderr, "usage: raprouter -fleet url1,url2,... [flags]")
		flag.Usage()
		os.Exit(2)
	}
	var urls []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, strings.TrimRight(w, "/"))
		}
	}

	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Workers:        urls,
		VNodes:         *vnodes,
		Attempts:       *attempts,
		RequestTimeout: *reqWait,
		HealthInterval: *healthInt,
		MaxInflight:    *inflight,
		Metrics:        obs.NewMetrics(),
	})
	if err != nil {
		log.Fatalf("raprouter: %v", err)
	}

	srv := serve.NewServer(rt)
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe(*addr, func(a net.Addr) {
			log.Printf("raprouter: listening on %s, routing over %d workers", a, len(urls))
		})
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			log.Fatalf("raprouter: %v", err)
		}
	case sig := <-sigc:
		log.Printf("raprouter: %s — draining (%s budget)", sig, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("raprouter: drain: %v", err)
		}
		log.Printf("raprouter: drained cleanly")
	}
}
