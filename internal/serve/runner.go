package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fuzz"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/store"
)

// ErrQueueFull reports that the runner's bounded queue cannot take the
// work right now — the backpressure signal the HTTP layer turns into
// 429 + Retry-After.
var ErrQueueFull = errors.New("job queue full")

// ErrDraining reports that the runner has stopped accepting work (it is
// shutting down gracefully).
var ErrDraining = errors.New("runner draining")

// AutoIDPrefix namespaces the job IDs the runner assigns to anonymous
// jobs. The namespace is reserved: a client-supplied ID under it is
// rejected as invalid, so an anonymous job's trace ID, slow-job log
// lines and response IDs can never be aliased by a later request that
// happens to guess the sequence (e.g. {"id": "auto-3"}).
const AutoIDPrefix = "auto-"

// RunnerConfig sizes the execution core.
type RunnerConfig struct {
	// Workers bounds concurrent job execution (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds accepted-but-unstarted jobs (default 4×Workers).
	// A full queue rejects with ErrQueueFull rather than growing without
	// bound.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache in entries
	// (default 256; negative disables caching).
	CacheSize int
	// JobTimeout is the per-job wall-clock ceiling. A job may ask for
	// less via TimeoutMS but never more (default 30s).
	JobTimeout time.Duration
	// MaxCycles is the interpreter budget ceiling: a job that sets no
	// budget gets it, and a larger budget is clamped to it (0 means
	// interp.DefaultMaxCycles).
	MaxCycles int64
	// Tracer observes every compilation; its metrics registry (if any)
	// also receives the serve.* counters. When nil a private registry is
	// created so /metrics always has content.
	Tracer *obs.Tracer
	// Store, when non-nil, persistently backs the result cache: completed
	// results write through to it under "result/" keys and reload on the
	// next boot (the warm start). It is the runner's only persistent
	// tier: no other worker reads it and the runner reads no other
	// worker's. The runner does not own the store; the caller closes it
	// after Drain.
	Store *store.Store
	// SlowJobThreshold, when > 0 and SlowJobLog is set, logs every job
	// whose wall clock meets or exceeds it as one structured JSON line
	// on SlowJobLog, stamped with the job's trace ID.
	SlowJobThreshold time.Duration
	// SlowJobLog receives the slow-job lines (nil disables the log even
	// with a threshold set). Writes are serialized by the runner.
	SlowJobLog io.Writer
}

func (cfg *RunnerConfig) fill() {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 30 * time.Second
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = interp.DefaultMaxCycles
	}
	if cfg.Tracer.Metrics() == nil {
		cfg.Tracer = cfg.Tracer.WithMetrics(obs.NewMetrics())
	}
}

// Task is one accepted job and its completion rendezvous.
type Task struct {
	ctx      context.Context
	job      Job
	accepted time.Time
	res      Result
	done     chan struct{}
	// autoID records that the runner (not the client) assigned the job's
	// ID, so execute can reject client IDs inside the reserved namespace
	// without rejecting its own.
	autoID bool
}

// Runner is the shared execution core: a bounded worker pool with
// panic-isolated, timeout-bounded, cache-fronted job execution. One
// Runner serves the HTTP daemon, the JSONL batch mode and the CLI alike.
type Runner struct {
	cfg     RunnerConfig
	metrics *obs.Metrics
	cache   *cache
	queue   chan *Task
	// pending counts accepted-but-unfinished tasks; it enforces the
	// queue bound atomically across multi-job batches.
	pending atomic.Int64
	// mu guards the accept path against Drain: Submit holds the read
	// side across its queue send, Drain flips draining under the write
	// side, so the queue is never closed with a send in flight.
	mu       sync.RWMutex
	draining bool
	wg       sync.WaitGroup
	// started anchors the uptime reported by /healthz.
	started time.Time
	// inflight counts jobs currently inside execute (as opposed to
	// pending, which also counts queued work).
	inflight atomic.Int64
	// jobSeq numbers jobs submitted without an ID, so every result and
	// trace line carries a stable trace ID.
	jobSeq atomic.Int64
	// slowMu serializes slow-job log lines.
	slowMu sync.Mutex
}

// NewRunner starts cfg.Workers workers and returns the runner. Call
// Drain to shut it down.
func NewRunner(cfg RunnerConfig) *Runner {
	cfg.fill()
	r := &Runner{
		cfg:     cfg,
		metrics: cfg.Tracer.Metrics(),
		queue:   make(chan *Task, cfg.QueueDepth+cfg.Workers),
		started: time.Now(),
	}
	r.metrics.SetGauge("serve.workers", int64(cfg.Workers))
	r.metrics.SetGauge("serve.queue.capacity", int64(cfg.QueueDepth))
	r.cache = newCache(cfg.CacheSize, r.metrics)
	if cfg.Store != nil {
		r.cache.disk = store.Prefixed(cfg.Store, resultPrefix)
		r.warmStart(cfg.Store)
	}
	r.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	return r
}

// resultPrefix namespaces the result cache's keys within the backing
// store.
const resultPrefix = "result/"

// warmStart reloads persisted results into the in-memory cache, oldest
// access first so the hottest entries end up most recently used. The LRU
// bound applies as usual; with more persisted results than capacity the
// freshest survive.
func (r *Runner) warmStart(s *store.Store) {
	n := 0
	_ = s.ForEach(func(key string, val []byte) bool {
		if !strings.HasPrefix(key, resultPrefix) {
			return true
		}
		var res Result
		if err := json.Unmarshal(val, &res); err != nil || res.Status != StatusOK {
			return true
		}
		r.cache.putMem(strings.TrimPrefix(key, resultPrefix), res)
		n++
		return true
	})
	if n > 0 {
		r.metrics.Add("serve.cache.warm_loaded", int64(n))
	}
}

// Metrics returns the registry the runner reports into.
func (r *Runner) Metrics() *obs.Metrics { return r.metrics }

// Workers returns the pool width.
func (r *Runner) Workers() int { return r.cfg.Workers }

// QueueDepth returns the accepted-work bound.
func (r *Runner) QueueDepth() int { return r.cfg.QueueDepth }

// Pending returns the number of accepted-but-unfinished jobs.
func (r *Runner) Pending() int { return int(r.pending.Load()) }

// CacheLen returns the current cache entry count.
func (r *Runner) CacheLen() int { return r.cache.len() }

// Submit enqueues one job without blocking. It fails fast with
// ErrQueueFull when the queue bound is reached and ErrDraining during
// shutdown; otherwise the returned channel is closed when the job
// finishes and Result carries the outcome. ctx cancellation applies to
// the job's execution, not to the wait.
func (r *Runner) Submit(ctx context.Context, job Job) (*Task, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.draining {
		return nil, ErrDraining
	}
	// Reserve a queue slot; undo on overflow. The reservation (not the
	// channel) is the bound, so a batch can check capacity job by job;
	// the channel is sized past the bound and never blocks a producer.
	if r.pending.Add(1) > int64(r.cfg.QueueDepth) {
		r.pending.Add(-1)
		r.metrics.Add("serve.queue.rejects", 1)
		return nil, ErrQueueFull
	}
	// Every job gets a stable ID at admission: it is the trace ID on the
	// job's spans/events, the "id" in its result line, and the join key
	// in the slow-job log. Caller-provided IDs win — except inside the
	// reserved auto namespace, which execute rejects (the autoID flag is
	// how it tells the runner's own IDs from a client collision).
	auto := false
	if job.ID == "" {
		job.ID = fmt.Sprintf("%s%d", AutoIDPrefix, r.jobSeq.Add(1))
		auto = true
	}
	t := &Task{ctx: ctx, job: job, accepted: time.Now(), done: make(chan struct{}), autoID: auto}
	r.metrics.Add("serve.jobs.accepted", 1)
	r.metrics.SetGauge("serve.queue.depth", r.pending.Load()-r.inflight.Load())
	r.queue <- t
	return t, nil
}

// Wait blocks until the task finishes and returns its result.
func (t *Task) Wait() Result {
	<-t.done
	return t.res
}

// Do runs one job synchronously: Submit + Wait. Queue overflow and
// draining surface as the error, not a Result.
func (r *Runner) Do(ctx context.Context, job Job) (Result, error) {
	t, err := r.Submit(ctx, job)
	if err != nil {
		return Result{}, err
	}
	return t.Wait(), nil
}

// DoBatch submits every job and waits for all of them, preserving input
// order. Admission is whole-batch: when the queue cannot take some job
// (ErrQueueFull, ErrDraining) DoBatch returns that error and no results,
// after letting the jobs it already admitted finish.
func (r *Runner) DoBatch(ctx context.Context, jobs []Job) ([]Result, error) {
	tasks := make([]*Task, len(jobs))
	for i, job := range jobs {
		t, err := r.Submit(ctx, job)
		if err != nil {
			for _, prev := range tasks[:i] {
				prev.Wait()
			}
			return nil, err
		}
		tasks[i] = t
	}
	out := make([]Result, len(tasks))
	for i, t := range tasks {
		out[i] = t.Wait()
	}
	return out, nil
}

// Drain stops accepting new work, waits for accepted jobs (queued and
// in-flight) to finish, and stops the workers. It returns nil on a clean
// drain or ctx's error if the deadline expires first — in which case
// workers are abandoned mid-job but, because every job runs under an
// isolated context, they unwind on their own afterwards.
func (r *Runner) Drain(ctx context.Context) error {
	r.mu.Lock()
	already := r.draining
	r.draining = true
	r.mu.Unlock()
	if already {
		return nil // second Drain: already draining/drained
	}
	close(r.queue)
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker drains the queue, executing one job at a time.
func (r *Runner) worker() {
	defer r.wg.Done()
	for t := range r.queue {
		r.metrics.ObserveDur("serve.queue.wait", time.Since(t.accepted))
		t.res = r.execute(t.ctx, t.job, t.autoID)
		r.pending.Add(-1)
		close(t.done)
	}
}

// execute runs one job through validation, the cache, and the isolated
// pipeline, and classifies the outcome. autoID marks a runner-assigned
// ID (exempt from the reserved-namespace check).
func (r *Runner) execute(ctx context.Context, job Job, autoID bool) Result {
	start := time.Now()
	r.metrics.Add("serve.jobs.started", 1)
	r.metrics.SetGauge("serve.inflight", r.inflight.Add(1))
	finish := func(res Result) Result {
		d := time.Since(start)
		if res.DurationMS == 0 {
			res.DurationMS = d.Milliseconds()
		}
		r.inflight.Add(-1)
		r.metrics.Add("serve.jobs."+res.Status, 1)
		r.metrics.ObserveDur("serve.job", d)
		r.logSlow(res, d)
		return res
	}
	if !autoID && strings.HasPrefix(job.ID, AutoIDPrefix) {
		return finish(Result{ID: job.ID, Status: StatusInvalid,
			Error: fmt.Sprintf("%v: job ID %q is in the reserved %q namespace", ErrBadJob, job.ID, AutoIDPrefix)})
	}
	if err := job.Validate(); err != nil {
		return finish(Result{ID: job.ID, Status: StatusInvalid, Error: err.Error()})
	}
	key := job.CacheKey()
	if hit, ok := r.cache.get(key); ok {
		hit.ID = job.ID
		hit.Cached = true
		return finish(hit)
	}
	timeout := r.cfg.JobTimeout
	if job.TimeoutMS > 0 {
		if d := time.Duration(job.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	if job.MaxCycles == 0 || job.MaxCycles > r.cfg.MaxCycles {
		job.MaxCycles = r.cfg.MaxCycles
	}
	// Concurrent jobs record into the runner's one registry; the
	// pipeline's metrics are all sums, so the registry's deterministic
	// sections do not depend on how jobs interleave. The job's tracer
	// carries its ID as the trace tag, so every span/event the pipeline
	// emits lands in the sinks stamped with the ID the caller can
	// correlate against.
	tr := r.cfg.Tracer.WithTag(job.ID)
	var outcome *Outcome
	err := fuzz.RunIsolated(ctx, timeout, func(cctx context.Context) error {
		var uerr error
		outcome, uerr = ExecuteJob(cctx, job, ExecOptions{Tracer: tr})
		return uerr
	})
	if err != nil {
		status := Classify(err)
		return finish(Result{ID: job.ID, Status: status, Error: err.Error()})
	}
	res := resultFromOutcome(job, outcome)
	res.DurationMS = time.Since(start).Milliseconds()
	r.cache.put(key, res)
	return finish(res)
}

// slowJobLine is the JSON shape of one slow-job log entry.
type slowJobLine struct {
	SlowJob     bool   `json:"slow_job"`
	TraceID     string `json:"trace_id"`
	Status      string `json:"status"`
	DurationMS  int64  `json:"duration_ms"`
	ThresholdMS int64  `json:"threshold_ms"`
	Mode        string `json:"mode,omitempty"`
	Allocator   string `json:"allocator,omitempty"`
	Cached      bool   `json:"cached,omitempty"`
	Error       string `json:"error,omitempty"`
}

// logSlow writes one structured line for a job at or over the
// configured threshold — the needle-finder for latency incidents:
// grep the trace ID here, then pull the matching spans from the trace
// JSONL and the result from the batch output.
func (r *Runner) logSlow(res Result, d time.Duration) {
	if r.cfg.SlowJobLog == nil || r.cfg.SlowJobThreshold <= 0 || d < r.cfg.SlowJobThreshold {
		return
	}
	r.metrics.Add("serve.jobs.slow", 1)
	line, err := json.Marshal(slowJobLine{
		SlowJob: true, TraceID: res.ID, Status: res.Status,
		DurationMS: d.Milliseconds(), ThresholdMS: r.cfg.SlowJobThreshold.Milliseconds(),
		Cached: res.Cached, Error: res.Error,
	})
	if err != nil {
		return
	}
	r.slowMu.Lock()
	r.cfg.SlowJobLog.Write(append(line, '\n'))
	r.slowMu.Unlock()
}

// Healthz is the service's liveness summary.
type Healthz struct {
	// State is "ok" while accepting work and "draining" once shutdown
	// began. Status is its historical alias (same value).
	State    string `json:"state"`
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	Queue    int    `json:"queue_depth"`
	Pending  int    `json:"pending"`
	InFlight int    `json:"in_flight"`
	Cache    int    `json:"cache_entries"`
	UptimeMS int64  `json:"uptime_ms"`
}

// Health reports the runner's current shape.
func (r *Runner) Health() Healthz {
	r.mu.RLock()
	draining := r.draining
	r.mu.RUnlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	return Healthz{
		State:    status,
		Status:   status,
		Workers:  r.cfg.Workers,
		Queue:    r.cfg.QueueDepth,
		Pending:  r.Pending(),
		InFlight: int(r.inflight.Load()),
		Cache:    r.CacheLen(),
		UptimeMS: time.Since(r.started).Milliseconds(),
	}
}

// HealthBody is the runner's /healthz reply: its Health.
func (r *Runner) HealthBody() any { return r.Health() }

// MetricsSnapshot is the runner's /metrics reply: the serve.*
// counters, gauges and latency histograms, every pipeline metric the
// jobs recorded (rap.*, gra.*, interp.*, …) and the
// persistent store's traffic (store.*) when one is attached. The
// point-in-time gauges (queue depth, in-flight jobs, worker utilization
// as a 0–100 percentage) are refreshed first.
func (r *Runner) MetricsSnapshot() obs.Snapshot {
	inflight := r.inflight.Load()
	queued := r.pending.Load() - inflight
	if queued < 0 {
		queued = 0
	}
	r.metrics.SetGauge("serve.inflight", inflight)
	r.metrics.SetGauge("serve.queue.depth", queued)
	r.metrics.SetGauge("serve.utilization_pct", 100*inflight/int64(r.cfg.Workers))
	return r.metrics.Snapshot()
}

// String helps log lines.
func (h Healthz) String() string {
	return fmt.Sprintf("state=%s workers=%d queue=%d pending=%d inflight=%d cache=%d uptime_ms=%d",
		h.State, h.Workers, h.Queue, h.Pending, h.InFlight, h.Cache, h.UptimeMS)
}
