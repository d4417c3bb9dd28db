// Command rapserved is the long-running batch-allocation service: it
// accepts batches of (program, allocator, k) jobs over HTTP/JSON — or
// over stdin JSONL in offline batch mode — and runs them on a bounded,
// panic-isolated worker pool with per-job timeouts, a content-addressed
// result cache, and graceful drain on SIGTERM.
//
// Usage:
//
//	rapserved -addr :8080                 # serve HTTP
//	rapserved -batch < jobs.jsonl         # offline: one job/result per line
//	rapserved -store-dir /var/lib/rap     # persist results across restarts
//
// Endpoints:
//
//	POST /v1/batch   {"jobs":[{...}]} -> per-job results, 429+Retry-After on a full queue
//	POST /v1/jobs    one job -> one result (400/504/500 mirror the job status)
//	GET  /healthz    liveness JSON: state (ok|draining), in-flight, uptime
//	GET  /metrics    rap/metrics/v2 snapshot (counters, gauges, latency histograms);
//	                 ?format=prom renders Prometheus text exposition
//
// The store is this worker's alone. In a fleet, raprouter sends each job
// to the worker that owns its cache key, and no worker reads another's
// store; a worker restarted on its store directory warm-starts from it.
//
// Jobs carry stable trace IDs: the X-Rap-Trace-Id request header seeds
// IDs for jobs that do not name their own, and every result, trace
// event and slow-job log line echoes the ID back.
//
// Setting RAP_DEBUG installs a text event sink on stderr — the env var is
// interpreted here, in the command, never inside the library packages.
// -pprof-addr starts an opt-in net/http/pprof server on a separate
// listener so profiling never shares a port with the job API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux used only by -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "accepted-job queue bound (0 = 4x workers)")
		cacheSize  = flag.Int("cache", 256, "result cache entries (negative disables)")
		jobTimeout = flag.Duration("job-timeout", 30*time.Second, "per-job wall clock ceiling (jobs may ask for less, never more)")
		maxCycles  = flag.Int64("max-cycles", 0, "interpreter cycle budget per run, and the ceiling on a job's max_cycles (0 = interpreter default)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain may take before giving up")
		batch      = flag.Bool("batch", false, "offline mode: read job JSONL from stdin, write result JSONL to stdout, exit")
		traceOut   = flag.String("trace-out", "", "write allocation/pipeline events as JSON lines to this file")
		storeDir   = flag.String("store-dir", "", "persist results in this directory (warm-started on boot)")
		storeMax   = flag.Int64("store-max-bytes", 0, "size bound for the persistent store before GC by access time (0 = 64 MiB)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		slowJob    = flag.Duration("slow-job", 0, "log a structured line to stderr for any job slower than this (0 = disabled)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: rapserved [flags]")
		flag.Usage()
		os.Exit(2)
	}

	// The cmd layer decides the sinks: RAP_DEBUG (the historic shim) puts
	// text events on stderr, -trace-out adds a JSONL file. The runner
	// always carries a metrics registry for /metrics.
	var sinks []obs.Sink
	if os.Getenv("RAP_DEBUG") != "" {
		sinks = append(sinks, obs.NewTextSink(os.Stderr))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("rapserved: %v", err)
		}
		defer f.Close()
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	tracer := obs.New(sinks...).WithMetrics(obs.NewMetrics())

	// The persistent store outlives the process: results reload into the
	// cache on boot. It closes after the drain, when no worker can still
	// write.
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(filepath.Join(*storeDir, "artifacts.log"), store.Options{
			MaxBytes: *storeMax,
			Metrics:  tracer.Metrics(),
		})
		if err != nil {
			log.Fatalf("rapserved: open store: %v", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("rapserved: close store: %v", err)
			}
		}()
		log.Printf("rapserved: store %s (%d artifacts, %d bytes)", st.Path(), st.Len(), st.SizeBytes())
	}

	// The pprof listener is separate from the API listener on purpose: a
	// scrape-all prometheus config or a load balancer health check must
	// never be able to trigger a heap dump.
	if *pprofAddr != "" {
		go func() {
			log.Printf("rapserved: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("rapserved: pprof: %v", err)
			}
		}()
	}

	runner := serve.NewRunner(serve.RunnerConfig{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cacheSize,
		JobTimeout:       *jobTimeout,
		MaxCycles:        *maxCycles,
		Tracer:           tracer,
		Store:            st,
		SlowJobThreshold: *slowJob,
		SlowJobLog:       os.Stderr,
	})

	if *batch {
		// Offline batch mode: SIGINT/SIGTERM cancels in-flight jobs; the
		// already-produced result lines are on stdout either way.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := serve.RunJSONL(ctx, runner, os.Stdin, os.Stdout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		runner.Drain(dctx)
		if err != nil {
			log.Fatalf("rapserved: %v", err)
		}
		return
	}

	srv := serve.NewServer(runner)
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe(*addr, func(a net.Addr) {
			log.Printf("rapserved: listening on %s (%s)", a, runner.Health())
		})
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			log.Fatalf("rapserved: %v", err)
		}
	case sig := <-sigc:
		log.Printf("rapserved: %s — draining (%s budget, %d pending)", sig, *drainWait, runner.Pending())
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatalf("rapserved: drain: %v", err)
		}
		log.Printf("rapserved: drained cleanly")
	}
}
