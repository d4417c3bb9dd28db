package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// RouterConfig sizes the fleet front door.
type RouterConfig struct {
	// Workers are the rapserved base URLs the ring is built over
	// (required, e.g. "http://10.0.0.1:8080").
	Workers []string
	// VNodes is the ring's virtual-node count per worker (<= 0 uses
	// DefaultVNodes).
	VNodes int
	// Attempts bounds how many distinct workers one job may be offered
	// before the router gives up (<= 0 tries every worker). Each requeue
	// walks one step clockwise from the job's owner, so every router
	// instance retries in the same order.
	Attempts int
	// RequestTimeout bounds one forwarded request (default 60s — above
	// the workers' own 30s job ceiling, so worker-side timeouts surface
	// as job statuses, not transport errors).
	RequestTimeout time.Duration
	// HealthInterval is the liveness probe period (default 1s; <= 0
	// after fill means probing is on — set Disable via a huge interval
	// only in tests).
	HealthInterval time.Duration
	// MaxInflight bounds concurrently forwarded jobs across all requests
	// (default 256): the router's own backpressure, in front of the
	// workers' 429s.
	MaxInflight int
	// Metrics receives the fleet.* counters and the router latency
	// histograms (nil creates a private registry so /metrics always has
	// content).
	Metrics *obs.Metrics
	// Client overrides the upstream HTTP client (tests).
	Client *http.Client
}

func (cfg *RouterConfig) fill() {
	if cfg.Attempts <= 0 || cfg.Attempts > len(cfg.Workers) {
		cfg.Attempts = len(cfg.Workers)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64, // the router talks to few hosts, a lot
			IdleConnTimeout:     90 * time.Second,
		}}
	}
}

// maxReplyBytes bounds how much of one worker reply the router reads.
// A reply carries a job's allocated code and output, which can outgrow
// the job's request.
const maxReplyBytes = 32 << 20

// Router consistent-hashes jobs onto the worker fleet, health-checks
// the workers, and requeues jobs around worker loss. It is a
// serve.Backend: serve.NewServer(router) answers the same HTTP surface
// as a single rapserved worker, under the same limits, so clients
// cannot tell a fleet from one process — except that it survives
// losing workers.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	metrics *obs.Metrics
	client  *http.Client
	sem     chan struct{}
	// down[w] is flipped by the health prober and by forward failures;
	// a down worker is deprioritized (not excluded — with every other
	// replica down it is still the last resort).
	down map[string]*atomic.Bool
	// jobSeq names anonymous jobs fleet-<n>: fleet-wide stable IDs that
	// survive requeues, outside the workers' reserved auto-* namespace.
	jobSeq  atomic.Int64
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	started time.Time
}

// NewRouter validates the config, builds the ring, and starts the
// health prober. Call Drain to stop it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := NewRing(cfg.Workers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	cfg.Workers = ring.Workers()
	cfg.fill()
	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		metrics: cfg.Metrics,
		client:  cfg.Client,
		sem:     make(chan struct{}, cfg.MaxInflight),
		down:    make(map[string]*atomic.Bool, len(cfg.Workers)),
		stop:    make(chan struct{}),
		started: time.Now(),
	}
	for _, w := range cfg.Workers {
		rt.down[w] = &atomic.Bool{}
	}
	rt.metrics.SetGauge("fleet.workers", int64(len(cfg.Workers)))
	rt.metrics.SetGauge("fleet.workers.alive", int64(len(cfg.Workers)))
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// probeLoop polls every worker's /healthz on the configured interval,
// reviving requeue-marked workers that recovered and demoting dead
// ones before a job has to find out the hard way.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	alive := int64(0)
	for _, w := range rt.cfg.Workers {
		rt.metrics.Add("fleet.health.probes", 1)
		ok := rt.probe(w)
		if !ok {
			rt.metrics.Add("fleet.health.failures", 1)
		}
		rt.down[w].Store(!ok)
		if ok {
			alive++
		}
	}
	rt.metrics.SetGauge("fleet.workers.alive", alive)
}

func (rt *Router) probe(worker string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// candidates returns the job's replica sequence: ring preference order,
// stably partitioned so currently-alive workers come first. A fully
// dark fleet still yields the full sequence — the job gets its chance
// in case the outage is stale news.
func (rt *Router) candidates(key string) []string {
	cands := rt.ring.Lookup(key, rt.cfg.Attempts)
	sort.SliceStable(cands, func(i, j int) bool {
		return !rt.down[cands[i]].Load() && rt.down[cands[j]].Load()
	})
	return cands
}

// attemptOutcome is one forward's verdict.
type attemptOutcome struct {
	res   serve.Result
	final bool // a job-level result (even a failed one) — do not retry
	// backpressure marks a 429/503: the worker is alive, its queue is
	// full. When the whole candidate list answers this way the job is
	// not unroutable — the fleet is saturated, and the router waits out
	// the queues instead of failing the job.
	backpressure bool
	// died marks a transport failure after the whole request was
	// written: the worker was alive when it took the job and gone before
	// it answered. A refused dial (a worker already dead) is not a death.
	died bool
	err  error
}

// maxDeaths is how many workers may die with one job in flight before
// the router fails the job instead of requeuing it. A job that crashes
// whichever process runs it would otherwise walk the ring and take down
// every worker. Two lets a job survive one unrelated worker crash: the
// jobs in flight on a killed worker fail there once and requeue once.
const maxDeaths = 2

// Do routes one job: consistent-hash placement, then requeue on
// infrastructure failure. The router admits every job, waiting for a
// forwarding slot, so the error is always nil; a job that no replica
// could take, or that killed maxDeaths of them, comes back as an error
// Result.
func (rt *Router) Do(ctx context.Context, job serve.Job) (serve.Result, error) {
	if job.ID == "" {
		job.ID = fmt.Sprintf("fleet-%d", rt.jobSeq.Add(1))
	}
	select {
	case rt.sem <- struct{}{}:
		defer func() { <-rt.sem }()
	case <-ctx.Done():
		return canceled(ctx, job), nil
	}
	start := time.Now()
	res := rt.route(ctx, job)
	rt.metrics.ObserveDur("fleet.job", time.Since(start))
	rt.metrics.Add("fleet.jobs."+res.Status, 1)
	return res, nil
}

// DoBatch routes every job on its own, concurrently, and returns the
// results in request order. The fleet has no shared queue to reserve a
// whole batch in — per-job placement is the point — so a saturated
// worker's 429 becomes a requeue and, last, a per-job error Result;
// like Do, DoBatch admits every job and its error is always nil.
func (rt *Router) DoBatch(ctx context.Context, jobs []serve.Job) ([]serve.Result, error) {
	results := make([]serve.Result, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = rt.Do(ctx, job)
		}()
	}
	wg.Wait()
	return results, nil
}

// canceled is the result of a job whose caller gave up.
func canceled(ctx context.Context, job serve.Job) serve.Result {
	return serve.Result{ID: job.ID, Status: serve.StatusCanceled, Error: ctx.Err().Error()}
}

// route offers the job to its candidates one at a time, in ring order,
// until one answers with a job-level result.
func (rt *Router) route(ctx context.Context, job serve.Job) serve.Result {
	cands := rt.candidates(job.CacheKey())
	// The routing budget caps backpressure rounds: a saturated fleet is
	// waited out, up to one RequestTimeout of total routing time.
	routeDeadline := time.Now().Add(rt.cfg.RequestTimeout)
	var lastErr error
	deaths := 0
	for round := 0; ; round++ {
		sawBackpressure := false
		for _, w := range cands {
			out := rt.forward(ctx, w, job)
			if out.final {
				return out.res
			}
			if ctx.Err() != nil {
				return canceled(ctx, job)
			}
			lastErr = out.err
			sawBackpressure = sawBackpressure || out.backpressure
			if out.died {
				deaths++
				if deaths == maxDeaths {
					rt.metrics.Add("fleet.jobs.poison", 1)
					return serve.Result{ID: job.ID, Status: serve.StatusError,
						Error: fmt.Sprintf("not requeued: %d workers died with this job in flight: %v", deaths, lastErr)}
				}
			}
			rt.metrics.Add("fleet.requeue", 1)
		}
		// The candidate list is spent. If any worker merely said "queue
		// full", the job is deferred, not doomed: back off and walk the
		// ring again within the routing budget.
		if !sawBackpressure || !time.Now().Before(routeDeadline) {
			rt.metrics.Add("fleet.jobs.unroutable", 1)
			return serve.Result{ID: job.ID, Status: serve.StatusError,
				Error: fmt.Sprintf("no worker available after %d attempts: %v", len(cands), lastErr)}
		}
		rt.metrics.Add("fleet.backpressure.rounds", 1)
		select {
		case <-time.After(time.Duration(10<<min(round, 4)) * time.Millisecond):
		case <-ctx.Done():
			return canceled(ctx, job)
		}
	}
}

// forward posts one job to one worker's /v1/jobs. Admission rejections
// (429/503) and transport failures are non-final — the requeue signal;
// any decodable job result (ok, invalid, timeout, error) is final,
// because the pipeline is deterministic: re-running an invalid or
// failed job elsewhere reproduces the same outcome.
func (rt *Router) forward(ctx context.Context, worker string, job serve.Job) attemptOutcome {
	body, err := json.Marshal(job)
	if err != nil {
		return attemptOutcome{final: true, res: serve.Result{ID: job.ID, Status: serve.StatusError, Error: err.Error()}}
	}
	fctx, cancel := context.WithTimeout(ctx, rt.cfg.RequestTimeout)
	defer cancel()
	// The transport reports the finished write from its own goroutine.
	var wrote atomic.Bool
	fctx = httptrace.WithClientTrace(fctx, &httptrace.ClientTrace{
		WroteRequest: func(info httptrace.WroteRequestInfo) { wrote.Store(info.Err == nil) },
	})
	req, err := http.NewRequestWithContext(fctx, http.MethodPost, worker+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return attemptOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The job's own context died (the caller is gone) — not the
			// worker's fault; don't mark it down.
			return attemptOutcome{err: ctx.Err()}
		}
		rt.down[worker].Store(true)
		return attemptOutcome{died: wrote.Load(), err: fmt.Errorf("worker %s: %w", worker, err)}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	if err != nil {
		rt.down[worker].Store(true)
		return attemptOutcome{died: true, err: fmt.Errorf("worker %s: read: %w", worker, err)}
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Backpressure or draining: the worker is alive, just not taking
		// this job — requeue without demoting it.
		return attemptOutcome{backpressure: true, err: fmt.Errorf("worker %s: HTTP %d", worker, resp.StatusCode)}
	}
	var res serve.Result
	if err := json.Unmarshal(raw, &res); err != nil || res.Status == "" {
		rt.down[worker].Store(true)
		return attemptOutcome{err: fmt.Errorf("worker %s: undecodable response (HTTP %d)", worker, resp.StatusCode)}
	}
	return attemptOutcome{res: res, final: true}
}

// FleetHealth is the router's /healthz body: its own state plus the
// per-worker liveness map.
type FleetHealth struct {
	State        string            `json:"state"`
	Workers      map[string]string `json:"workers"`
	WorkersAlive int               `json:"workers_alive"`
	UptimeMS     int64             `json:"uptime_ms"`
}

// HealthBody is the router's /healthz reply: a FleetHealth.
func (rt *Router) HealthBody() any {
	h := FleetHealth{State: "ok", Workers: make(map[string]string, len(rt.cfg.Workers))}
	for _, w := range rt.cfg.Workers {
		if rt.down[w].Load() {
			h.Workers[w] = "down"
		} else {
			h.Workers[w] = "up"
			h.WorkersAlive++
		}
	}
	h.UptimeMS = time.Since(rt.started).Milliseconds()
	return h
}

// Metrics returns the router's registry.
func (rt *Router) Metrics() *obs.Metrics { return rt.metrics }

// MetricsSnapshot is the router's /metrics reply: the fleet.* counters
// and gauges, the routing latency histogram and the serve.http.*
// endpoint timings.
func (rt *Router) MetricsSnapshot() obs.Snapshot { return rt.metrics.Snapshot() }

// Drain stops the health prober and waits for it, under ctx's budget.
// The Server in front of the router lets in-flight requests finish
// first; the workers drain themselves.
func (rt *Router) Drain(ctx context.Context) error {
	rt.stopped.Do(func() { close(rt.stop) })
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
