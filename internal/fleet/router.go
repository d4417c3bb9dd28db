package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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
	// MaxBatch and MaxBodyBytes mirror the worker-side request parse
	// ceilings (defaults 4096 jobs, 32 MiB).
	MaxBatch     int
	MaxBodyBytes int64
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
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
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

// Router consistent-hashes jobs onto the worker fleet, health-checks
// the workers, and requeues jobs around worker loss. It exposes the
// same HTTP surface as a single rapserved worker (/v1/batch, /v1/jobs,
// /healthz, /metrics), so clients cannot tell a fleet from one process
// — except that it survives losing workers.
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
	hs      *http.Server
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	started time.Time
}

// NewRouter validates the config, builds the ring, and starts the
// health prober. Call Shutdown (or Close) to stop it.
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
// infrastructure failure. It always returns a Result (an error Result
// when every replica is unreachable or the job killed maxDeaths of
// them).
func (rt *Router) Do(ctx context.Context, job serve.Job) serve.Result {
	if job.ID == "" {
		job.ID = fmt.Sprintf("fleet-%d", rt.jobSeq.Add(1))
	}
	select {
	case rt.sem <- struct{}{}:
		defer func() { <-rt.sem }()
	case <-ctx.Done():
		return canceled(ctx, job)
	}
	start := time.Now()
	res := rt.route(ctx, job)
	rt.metrics.ObserveDur("fleet.job", time.Since(start))
	rt.metrics.Add("fleet.jobs."+res.Status, 1)
	return res
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
	raw, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBodyBytes))
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

// Handler returns the router's HTTP surface — also the test seam.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/batch", rt.timed("batch", rt.handleBatch))
	mux.HandleFunc("/v1/jobs", rt.timed("jobs", rt.handleJob))
	mux.HandleFunc("/healthz", rt.timed("healthz", rt.handleHealthz))
	mux.HandleFunc("/metrics", rt.timed("metrics", rt.handleMetrics))
	return mux
}

func (rt *Router) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		rt.metrics.Add("fleet.http."+name+".requests", 1)
		rt.metrics.ObserveDur("fleet.http."+name, time.Since(start))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error  string `json:"error"`
	Status string `json:"status"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error(), Status: serve.StatusInvalid})
}

// decodeBody mirrors the worker-side strict decode: 413 past the body
// bound, 400 on malformed JSON.
func (rt *Router) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s body exceeds %d bytes", what, rt.cfg.MaxBodyBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s body: %w", what, err))
		return false
	}
	return true
}

// handleBatch splits a batch job-by-job across the ring and reassembles
// the results in request order. Unlike a single worker's whole-batch
// admission, the fleet has no shared queue to reserve in — per-job
// placement is the point — so 429s from saturated workers surface as
// requeues first and per-job error results last.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req serve.BatchRequest
	if !rt.decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch has no jobs"))
		return
	}
	if len(req.Jobs) > rt.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(req.Jobs), rt.cfg.MaxBatch))
		return
	}
	if tid := r.Header.Get(serve.TraceHeader); tid != "" {
		for i := range req.Jobs {
			if req.Jobs[i].ID == "" {
				if len(req.Jobs) == 1 {
					req.Jobs[i].ID = tid
				} else {
					req.Jobs[i].ID = fmt.Sprintf("%s-%d", tid, i)
				}
			}
		}
		w.Header().Set(serve.TraceHeader, tid)
	}
	results := make([]serve.Result, len(req.Jobs))
	var wg sync.WaitGroup
	for i, job := range req.Jobs {
		wg.Add(1)
		go func(i int, job serve.Job) {
			defer wg.Done()
			results[i] = rt.Do(r.Context(), job)
		}(i, job)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, serve.BatchResponse{Schema: serve.Schema, Results: results})
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var job serve.Job
	if !rt.decodeBody(w, r, "job", &job) {
		return
	}
	if job.ID == "" {
		job.ID = r.Header.Get(serve.TraceHeader)
	}
	res := rt.Do(r.Context(), job)
	w.Header().Set(serve.TraceHeader, res.ID)
	writeJSON(w, httpCode(res.Status), res)
}

// httpCode mirrors the worker-side status mapping so the router is a
// drop-in replacement for a single worker.
func httpCode(status string) int {
	switch status {
	case serve.StatusOK:
		return http.StatusOK
	case serve.StatusInvalid:
		return http.StatusBadRequest
	case serve.StatusTimeout:
		return http.StatusGatewayTimeout
	case serve.StatusCanceled:
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// FleetHealth is the router's /healthz body: its own state plus the
// per-worker liveness map.
type FleetHealth struct {
	State        string            `json:"state"`
	Workers      map[string]string `json:"workers"`
	WorkersAlive int               `json:"workers_alive"`
	UptimeMS     int64             `json:"uptime_ms"`
}

// Health reports the fleet's current shape.
func (rt *Router) Health() FleetHealth {
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

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Health())
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := rt.metrics.Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	snap.WriteJSON(w)
}

// Metrics returns the router's registry.
func (rt *Router) Metrics() *obs.Metrics { return rt.metrics }

// ListenAndServe serves the router on addr until Shutdown, reporting
// the bound address through ready (useful with ":0").
func (rt *Router) ListenAndServe(addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	rt.hs = &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if err := rt.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown stops the prober and the HTTP listener, letting in-flight
// requests finish under ctx's budget. The workers drain themselves.
func (rt *Router) Shutdown(ctx context.Context) error {
	var herr error
	if rt.hs != nil {
		herr = rt.hs.Shutdown(ctx)
	}
	rt.stopped.Do(func() { close(rt.stop) })
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return herr
}

// Close abandons everything immediately (tests, crash path).
func (rt *Router) Close() error {
	rt.stopped.Do(func() { close(rt.stop) })
	if rt.hs != nil {
		return rt.hs.Close()
	}
	return nil
}
