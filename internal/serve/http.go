package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
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

// Server is the daemon's HTTP surface over one Runner.
type Server struct {
	runner *Runner
	hs     *http.Server
	// MaxBatch bounds jobs per request (default 1024): a hard parse
	// ceiling in front of the queue's admission control.
	MaxBatch int
	// MaxBodyBytes bounds every request body (default 8 MiB). Overflow
	// answers 413 instead of letting one huge POST pin a worker's memory.
	MaxBodyBytes int64
	// ReadTimeout bounds reading one request, headers and body (default
	// 1 minute — a slow-loris body cannot hold a connection open longer).
	ReadTimeout time.Duration
	// WriteTimeout bounds handling + writing one response. The default
	// scales with the runner's shape: a full queue of worst-case jobs
	// ahead of a batch, plus slack — JobTimeout × (QueueDepth/Workers+2)
	// — so the ceiling fires on wedged connections, not on honest load.
	WriteTimeout time.Duration
	// IdleTimeout reaps idle keep-alive connections (default 2 minutes).
	IdleTimeout time.Duration
}

// NewServer wraps runner with the service endpoints.
func NewServer(runner *Runner) *Server {
	return &Server{
		runner:       runner,
		MaxBatch:     1024,
		MaxBodyBytes: 8 << 20,
		ReadTimeout:  time.Minute,
		WriteTimeout: runner.cfg.JobTimeout * time.Duration(runner.cfg.QueueDepth/runner.cfg.Workers+2),
		IdleTimeout:  2 * time.Minute,
	}
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
		m := s.runner.Metrics()
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
		ReadTimeout:       s.ReadTimeout,
		WriteTimeout:      s.WriteTimeout,
		IdleTimeout:       s.IdleTimeout,
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
// requests finish, then drain the runner (queued and running jobs
// complete — nothing accepted is lost).
func (s *Server) Shutdown(ctx context.Context) error {
	var herr error
	if s.hs != nil {
		herr = s.hs.Shutdown(ctx)
	}
	if err := s.runner.Drain(ctx); err != nil {
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

// decodeBody strictly decodes a JSON request body into v under the
// server's size bound, answering 400 on malformed JSON and 413 when the
// body overflows MaxBodyBytes. It reports whether the caller may
// proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, StatusInvalid,
				fmt.Errorf("%s body exceeds %d bytes", what, s.MaxBodyBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, StatusInvalid, fmt.Errorf("bad %s body: %w", what, err))
		return false
	}
	return true
}

// handleBatch runs a batch of jobs: per-job outcomes ride in a 200 body
// (one bad job does not fail its neighbours); the whole batch is turned
// away with 429 + Retry-After when the queue cannot take it, and with
// 400 when the request itself cannot be parsed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, StatusInvalid, errors.New("POST only"))
		return
	}
	var req BatchRequest
	if !s.decodeBody(w, r, "batch", &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, StatusInvalid, errors.New("batch has no jobs"))
		return
	}
	if len(req.Jobs) > s.MaxBatch {
		writeError(w, http.StatusBadRequest, StatusInvalid, fmt.Errorf("batch of %d exceeds limit %d", len(req.Jobs), s.MaxBatch))
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
	// Whole-batch admission: either every job is accepted or the batch
	// is turned away, so callers never see a half-run batch on
	// backpressure.
	tasks := make([]*Task, len(req.Jobs))
	for i, job := range req.Jobs {
		t, err := s.runner.Submit(r.Context(), job)
		if err != nil {
			for _, prev := range tasks[:i] {
				prev.Wait() // let already-accepted jobs finish; results discarded
			}
			s.reject(w, err)
			return
		}
		tasks[i] = t
	}
	resp := BatchResponse{Schema: Schema, Results: make([]Result, len(tasks))}
	for i, t := range tasks {
		resp.Results[i] = t.Wait()
	}
	writeJSON(w, http.StatusOK, resp)
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
	if !s.decodeBody(w, r, "job", &job) {
		return
	}
	if job.ID == "" {
		job.ID = r.Header.Get(TraceHeader)
	}
	res, err := s.runner.Do(r.Context(), job)
	if err != nil {
		s.reject(w, err)
		return
	}
	w.Header().Set(TraceHeader, res.ID)
	writeJSON(w, httpCode(res.Status), res)
}

// reject translates runner admission errors.
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
	writeJSON(w, http.StatusOK, s.runner.Health())
}

// handleMetrics serves the obs metrics snapshot (schema rap/metrics/v2):
// the serve.* counters/gauges/latency histograms, every pipeline metric
// the jobs' forked tracers merged back (rap.*, gra.*, interp.*, …), the
// persistent store's traffic (store.*) when one is attached, and —
// under "lastjob." — the full allocator metrics snapshot of the most
// recently executed job. The default rendering is the JSON snapshot;
// ?format=prom serves the same data in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.runner.ScrapeGauges()
	snap := s.runner.Metrics().Snapshot()
	snap = snap.Overlay("lastjob.", s.runner.LastJobSnapshot())
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
