package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
)

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Jobs []Job `json:"jobs"`
}

// BatchResponse is the POST /v1/batch reply: one result per job, in
// request order.
type BatchResponse struct {
	Schema  string   `json:"schema"`
	Results []Result `json:"results"`
}

// errorBody is the JSON shape of every non-2xx reply.
type errorBody struct {
	Error  string `json:"error"`
	Status string `json:"status"`
}

// TraceHeader is the HTTP header carrying a caller-chosen trace ID.
// On /v1/jobs it becomes the job's ID; on /v1/batch it seeds the IDs
// of jobs that did not bring their own ("<id>-0", "<id>-1", …). The
// effective ID is echoed back in the same header and in every result,
// span and slow-job line, so one ID follows a request end to end.
const TraceHeader = "X-Rap-Trace-Id"

// MaxRequestBytes bounds one request: an HTTP body or one line of
// RunJSONL input. A larger HTTP body answers 413 instead of letting one
// huge POST pin the process's memory.
const MaxRequestBytes = 8 << 20

// MaxBatchJobs bounds the jobs of one batch request: a hard parse
// ceiling in front of the backend's admission control.
const MaxBatchJobs = 1024

const (
	// readTimeout bounds reading one request, headers and body, so a
	// slow-loris body cannot hold a connection open longer.
	readTimeout = time.Minute
	// idleTimeout reaps idle keep-alive connections.
	idleTimeout = 2 * time.Minute
)

// Backend is what a Server serves: one worker's *Runner, or a fleet
// router in front of many workers. A Server answers the same way over
// either, so a client cannot tell a fleet from one process.
type Backend interface {
	// Do runs one job. A non-nil error means the job was not admitted
	// (ErrQueueFull, ErrDraining); a job's own failure rides in the
	// Result.
	Do(ctx context.Context, job Job) (Result, error)
	// DoBatch runs jobs and returns their results in request order,
	// or, if any job is not admitted, that admission error and no
	// results: callers never get part of a batch.
	DoBatch(ctx context.Context, jobs []Job) ([]Result, error)
	// HealthBody is the /healthz reply.
	HealthBody() any
	// Metrics is the registry the endpoint timers record into.
	Metrics() *obs.Metrics
	// MetricsSnapshot is the /metrics reply.
	MetricsSnapshot() obs.Snapshot
	// Drain runs once the Server stops taking requests: it stops the
	// backend (a Runner's workers, a router's health prober) and waits
	// for accepted work to finish.
	Drain(ctx context.Context) error
}

// Server is the one HTTP surface over a Backend: rapserved serves a
// Runner through it, raprouter a fleet router.
type Server struct {
	backend Backend
	hs      *http.Server
	// writeTimeout bounds handling + writing one response. Over a
	// Runner it scales with the runner's shape: a full queue of
	// worst-case jobs ahead of a batch, plus slack — JobTimeout ×
	// (QueueDepth/Workers+2) — so the ceiling fires on wedged
	// connections, not on honest load. Over any other backend it is 0
	// (none): a fleet router bounds each forward with its own
	// RequestTimeout.
	writeTimeout time.Duration
}

// NewServer wraps b with the service endpoints.
func NewServer(b Backend) *Server {
	s := &Server{backend: b}
	if r, ok := b.(*Runner); ok {
		s.writeTimeout = r.cfg.JobTimeout * time.Duration(r.cfg.QueueDepth/r.cfg.Workers+2)
	}
	return s
}

// Handler returns the routed endpoints — also the test seam (httptest
// mounts it directly).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/batch", s.timed("batch", s.handleBatch))
	mux.HandleFunc("/v1/jobs", s.timed("jobs", s.handleJob))
	mux.HandleFunc("/healthz", s.timed("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.timed("metrics", s.handleMetrics))
	return mux
}

// timed wraps a handler with a per-endpoint latency histogram and
// request counter ("serve.http.<name>", "serve.http.<name>.requests").
func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		m := s.backend.Metrics()
		m.Add("serve.http."+name+".requests", 1)
		m.ObserveDur("serve.http."+name, time.Since(start))
	}
}

// ListenAndServe serves on addr until Shutdown. It reports the bound
// listener address through the ready callback (useful with ":0").
func (s *Server) ListenAndServe(addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      s.writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := s.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Close abandons the listener and every open connection immediately —
// the crash path (and the fault-injection tests' worker kill), as
// opposed to Shutdown's graceful drain.
func (s *Server) Close() error {
	if s.hs == nil {
		return nil
	}
	return s.hs.Close()
}

// Shutdown drains gracefully: stop accepting connections, let in-flight
// requests finish, then drain the backend (queued and running jobs
// complete — nothing accepted is lost).
func (s *Server) Shutdown(ctx context.Context) error {
	var herr error
	if s.hs != nil {
		herr = s.hs.Shutdown(ctx)
	}
	if err := s.backend.Drain(ctx); err != nil {
		return err
	}
	return herr
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, status string, err error) {
	writeJSON(w, code, errorBody{Error: err.Error(), Status: status})
}

// decodeBody strictly decodes a JSON request body into v under
// MaxRequestBytes, answering 400 on malformed JSON and 413 when the
// body overflows the bound. It reports whether the caller may proceed.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	if err := decodeStrict(r.Body, v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, StatusInvalid,
				fmt.Errorf("%s body exceeds %d bytes", what, MaxRequestBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, StatusInvalid, fmt.Errorf("bad %s body: %w", what, err))
		return false
	}
	return true
}

// handleBatch runs a batch of jobs: per-job outcomes ride in a 200 body
// (one bad job does not fail its neighbours); the whole batch is turned
// away with 429 + Retry-After when the backend cannot take it, and with
// 400 when the request itself cannot be parsed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, StatusInvalid, errors.New("POST only"))
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, StatusInvalid, errors.New("batch has no jobs"))
		return
	}
	if len(req.Jobs) > MaxBatchJobs {
		writeError(w, http.StatusBadRequest, StatusInvalid, fmt.Errorf("batch of %d exceeds limit %d", len(req.Jobs), MaxBatchJobs))
		return
	}
	// A trace ID in the request header seeds every job that did not
	// bring its own ID, and is echoed back so the caller can follow the
	// batch through traces, metrics and the slow-job log.
	if tid := r.Header.Get(TraceHeader); tid != "" {
		for i := range req.Jobs {
			if req.Jobs[i].ID == "" {
				if len(req.Jobs) == 1 {
					req.Jobs[i].ID = tid
				} else {
					req.Jobs[i].ID = fmt.Sprintf("%s-%d", tid, i)
				}
			}
		}
		w.Header().Set(TraceHeader, tid)
	}
	results, err := s.backend.DoBatch(r.Context(), req.Jobs)
	if err != nil {
		s.reject(w, err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Schema: Schema, Results: results})
}

// handleJob runs a single job. Unlike the batch endpoint, a job-level
// rejection is the whole request's outcome, so StatusInvalid maps to
// 400, timeouts to 504, pipeline failures to 500.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, StatusInvalid, errors.New("POST only"))
		return
	}
	var job Job
	if !decodeBody(w, r, "job", &job) {
		return
	}
	if job.ID == "" {
		job.ID = r.Header.Get(TraceHeader)
	}
	res, err := s.backend.Do(r.Context(), job)
	if err != nil {
		s.reject(w, err)
		return
	}
	w.Header().Set(TraceHeader, res.ID)
	writeJSON(w, httpCode(res.Status), res)
}

// reject translates backend admission errors.
func (s *Server) reject(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, StatusError, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, StatusError, err)
	default:
		writeError(w, http.StatusInternalServerError, StatusError, err)
	}
}

// httpCode maps a single job's status to the response code.
func httpCode(status string) int {
	switch status {
	case StatusOK:
		return http.StatusOK
	case StatusInvalid:
		return http.StatusBadRequest
	case StatusTimeout:
		return http.StatusGatewayTimeout
	case StatusCanceled:
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.backend.HealthBody())
}

// handleMetrics serves the backend's metrics snapshot (schema
// rap/metrics/v2). The default rendering is the JSON snapshot;
// ?format=prom serves the same data in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.backend.MetricsSnapshot()
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
