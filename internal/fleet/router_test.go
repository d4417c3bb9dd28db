package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// fakeWorker is a rapserved stand-in: it answers /healthz, echoes every
// /v1/jobs job as an ok result naming itself in Output[0] (so tests can
// see placement), and optionally stalls for delay — aborting cleanly,
// and counting, when the request context is cancelled (the
// caller-cancellation observation point).
func fakeWorker(t *testing.T, name string, delay time.Duration, canceled *atomic.Int64) *httptest.Server {
	return poisonableWorker(t, name, delay, canceled, nil)
}

// poisonMark in a job's source makes a poisonable worker die.
const poisonMark = "/* poison */"

// poisonableWorker is fakeWorker, except that with died set it dies on
// a job whose source carries poisonMark, as a worker process the job
// crashed would: it closes the job's connection without answering,
// stops listening and drops its other connections.
func poisonableWorker(t *testing.T, name string, delay time.Duration, canceled *atomic.Int64, died *atomic.Bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	srv := httptest.NewUnstartedServer(mux)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"state":"ok"}`)
	})
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var job serve.Job
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if died != nil && strings.Contains(job.Source, poisonMark) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("%s: hijack: %v", name, err)
				return
			}
			// Record the death before the router can see it.
			died.Store(true)
			conn.Close()
			srv.Listener.Close()
			srv.CloseClientConnections()
			return
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				if canceled != nil {
					canceled.Add(1)
				}
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.Result{ID: job.ID, Status: serve.StatusOK, Output: []string{name}})
	})
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

func newTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour // keep the prober out of the test's way
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		rt.client.CloseIdleConnections()
	})
	return rt
}

func testJob(i int) serve.Job {
	return serve.Job{
		ID:        fmt.Sprintf("rt-%03d", i),
		Source:    fmt.Sprintf("int main() { return %d; }", i),
		Allocator: "rap",
		K:         3 + i%4,
	}
}

// TestRouterRoutesByCacheKey: resubmitting a job always lands on the
// same worker — the worker the ring owns its cache key to — which is
// the whole economic argument for hashing by cache key.
func TestRouterRoutesByCacheKey(t *testing.T) {
	w1 := fakeWorker(t, "w1", 0, nil)
	w2 := fakeWorker(t, "w2", 0, nil)
	w3 := fakeWorker(t, "w3", 0, nil)
	rt := newTestRouter(t, RouterConfig{Workers: []string{w1.URL, w2.URL, w3.URL}})

	servedBy := map[string]bool{}
	for i := 0; i < 30; i++ {
		job := testJob(i)
		owner := rt.ring.Lookup(job.CacheKey(), 1)[0]
		for round := 0; round < 2; round++ {
			res, _ := rt.Do(context.Background(), job)
			if res.Status != serve.StatusOK {
				t.Fatalf("job %d round %d: %q (%s)", i, round, res.Status, res.Error)
			}
			want := map[string]string{w1.URL: "w1", w2.URL: "w2", w3.URL: "w3"}[owner]
			if res.Output[0] != want {
				t.Fatalf("job %d round %d served by %s, ring owner is %s", i, round, res.Output[0], want)
			}
			servedBy[res.Output[0]] = true
		}
	}
	if len(servedBy) < 2 {
		t.Errorf("30 distinct jobs all landed on %v — ring is not spreading", servedBy)
	}
}

// TestRouterRequeueOnWorkerKill is the core fault injection: one of
// three workers is dead before the run, and every job — including the
// dead worker's share — must still complete ok via clockwise requeue.
func TestRouterRequeueOnWorkerKill(t *testing.T) {
	w1 := fakeWorker(t, "w1", 0, nil)
	w2 := fakeWorker(t, "w2", 0, nil)
	w3 := fakeWorker(t, "w3", 0, nil)
	dead := w3.URL
	w3.Close() // SIGKILL stand-in: connection refused from the first byte

	rt := newTestRouter(t, RouterConfig{Workers: []string{w1.URL, w2.URL, dead}})
	deadOwned := 0
	for i := 0; i < 40; i++ {
		job := testJob(i)
		if rt.ring.Lookup(job.CacheKey(), 1)[0] == dead {
			deadOwned++
		}
		res, _ := rt.Do(context.Background(), job)
		if res.Status != serve.StatusOK {
			t.Fatalf("job %d: %q (%s)", i, res.Status, res.Error)
		}
		if res.Output[0] == "w3" {
			t.Fatalf("job %d: served by the dead worker", i)
		}
	}
	if deadOwned == 0 {
		t.Fatal("test vacuous: no job hashed to the dead worker")
	}
	// Only the first dead-owned job pays the discovery requeue; the
	// failure marks the worker down and later jobs skip it up front.
	c := rt.metrics.Snapshot().Counters
	if c["fleet.requeue"] == 0 {
		t.Error("no requeue recorded — the dead worker was never even tried")
	}
	if !rt.down[dead].Load() {
		t.Error("dead worker not marked down after forward failures")
	}
	// Once marked down the dead worker is deprioritized: candidates for
	// its keys must lead with a live worker.
	for i := 0; i < 40; i++ {
		job := testJob(i)
		if cands := rt.candidates(job.CacheKey()); cands[0] == dead {
			t.Fatalf("job %d: down worker still first candidate", i)
		}
	}
}

// TestRouterCallerCancel: a caller that gives up while its job stalls
// on a worker gets StatusCanceled at once. The worker observes the
// abort, is not marked down, and the job is not requeued onto the next
// worker.
func TestRouterCallerCancel(t *testing.T) {
	var slowCanceled atomic.Int64
	slow := fakeWorker(t, "slow", 10*time.Second, &slowCanceled)
	fast := fakeWorker(t, "fast", 0, nil)
	rt := newTestRouter(t, RouterConfig{Workers: []string{slow.URL, fast.URL}})

	// Find a job the ring places on the slow worker.
	var job serve.Job
	for i := 0; ; i++ {
		job = testJob(i)
		if rt.ring.Lookup(job.CacheKey(), 1)[0] == slow.URL {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, _ := rt.Do(ctx, job)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled job returned after %s", elapsed)
	}
	if res.Status != serve.StatusCanceled {
		t.Fatalf("canceled job: status %q served by %v (%s), want canceled", res.Status, res.Output, res.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for slowCanceled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if slowCanceled.Load() == 0 {
		t.Error("slow worker never observed the cancellation")
	}
	if rt.down[slow.URL].Load() {
		t.Error("the caller's cancellation marked the worker down")
	}
	c := rt.metrics.Snapshot().Counters
	if c["fleet.requeue"] != 0 || c["fleet.jobs.canceled"] != 1 {
		t.Errorf("requeue = %d, jobs.canceled = %d; want 0 and 1", c["fleet.requeue"], c["fleet.jobs.canceled"])
	}
}

// TestRouterPoisonJob: a job that kills every worker it lands on is
// failed once two workers have died with it in flight, instead of
// walking the ring and taking the whole fleet down. The survivor still
// serves well-formed jobs, and refused dials to the dead workers do not
// count as deaths.
func TestRouterPoisonJob(t *testing.T) {
	names := []string{"w1", "w2", "w3"}
	var died [3]atomic.Bool
	var urls []string
	for i, name := range names {
		urls = append(urls, poisonableWorker(t, name, 0, nil, &died[i]).URL)
	}
	rt := newTestRouter(t, RouterConfig{Workers: urls})

	res, _ := rt.Do(context.Background(), serve.Job{ID: "poison", Source: "int main() { return 0; } " + poisonMark, Allocator: "rap", K: 5})
	if res.Status != serve.StatusError {
		t.Fatalf("poison job: status %q (%s), want error", res.Status, res.Error)
	}
	survivor, survivorName, dead := "", "", 0
	for i := range died {
		if died[i].Load() {
			dead++
		} else {
			survivor, survivorName = urls[i], names[i]
		}
	}
	if dead != maxDeaths {
		t.Fatalf("poison job took down %d of 3 workers, want %d (%s)", dead, maxDeaths, res.Error)
	}
	if c := rt.metrics.Snapshot().Counters; c["fleet.jobs.poison"] != 1 {
		t.Errorf("fleet.jobs.poison = %d, want 1", c["fleet.jobs.poison"])
	}
	for i := 0; i < 10; i++ {
		res, _ := rt.Do(context.Background(), testJob(i))
		if res.Status != serve.StatusOK || res.Output[0] != survivorName {
			t.Fatalf("job %d after the poison job: %q served by %v (%s), want ok from %s",
				i, res.Status, res.Output, res.Error, survivorName)
		}
	}

	// A fresh router does not know the two workers are dead. A job the
	// ring places on both before the survivor is refused twice on dial
	// and must still reach the survivor.
	rt2 := newTestRouter(t, RouterConfig{Workers: urls})
	var job serve.Job
	for i := 0; ; i++ {
		job = testJob(i)
		if rt2.ring.Lookup(job.CacheKey(), 0)[2] == survivor {
			break
		}
	}
	if res, _ := rt2.Do(context.Background(), job); res.Status != serve.StatusOK {
		t.Fatalf("job behind two dead workers: %q (%s), want ok from the survivor", res.Status, res.Error)
	}
}

// TestRouterBatchEndpoint: the fleet front door speaks the same
// /v1/batch dialect as a single worker — request-order results and
// fleet-namespaced IDs for anonymous jobs. The limits and trace seeding
// both backends share are in serve's TestHTTPConformance.
func TestRouterBatchEndpoint(t *testing.T) {
	w1 := fakeWorker(t, "w1", 0, nil)
	w2 := fakeWorker(t, "w2", 0, nil)
	rt := newTestRouter(t, RouterConfig{Workers: []string{w1.URL, w2.URL}})
	front := httptest.NewServer(serve.NewServer(rt).Handler())
	defer front.Close()

	req := serve.BatchRequest{}
	for i := 0; i < 10; i++ {
		j := testJob(i)
		if i == 7 {
			j.ID = "" // anonymous: the router must name it
		}
		req.Jobs = append(req.Jobs, j)
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(front.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(req.Jobs) {
		t.Fatalf("got %d results for %d jobs", len(br.Results), len(req.Jobs))
	}
	for i, res := range br.Results {
		if res.Status != serve.StatusOK {
			t.Fatalf("result %d: %q (%s)", i, res.Status, res.Error)
		}
		switch {
		case i == 7:
			if !strings.HasPrefix(res.ID, "fleet-") {
				t.Errorf("anonymous job ID = %q, want fleet-<n>", res.ID)
			}
		case res.ID != req.Jobs[i].ID:
			t.Errorf("result %d: ID %q, want %q (request order broken?)", i, res.ID, req.Jobs[i].ID)
		}
	}
}

// TestRouterWaitsOutBackpressure: when every worker answers 429 the job
// is deferred, not failed — the router backs off and walks the ring
// again, so fleet-wide saturation surfaces as latency, never as error
// results.
func TestRouterWaitsOutBackpressure(t *testing.T) {
	var rejections atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var job serve.Job
		json.NewDecoder(r.Body).Decode(&job)
		if rejections.Add(1) <= 3 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.Result{ID: job.ID, Status: serve.StatusOK, Output: []string{"busy"}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	rt := newTestRouter(t, RouterConfig{Workers: []string{srv.URL}, RequestTimeout: 10 * time.Second})
	res, _ := rt.Do(context.Background(), testJob(1))
	if res.Status != serve.StatusOK {
		t.Fatalf("saturated-fleet job: %q (%s), want ok after backoff", res.Status, res.Error)
	}
	c := rt.metrics.Snapshot().Counters
	if c["fleet.backpressure.rounds"] == 0 {
		t.Error("no backpressure rounds counted")
	}
	if c["fleet.jobs.unroutable"] != 0 {
		t.Error("saturation was misclassified as unroutable")
	}
}

// TestRouterNoGoroutineLeak: a router that served jobs — including
// requeues against a dead worker — and shut down leaves no goroutines
// behind. Leaks here compound per job in a long-lived fleet.
func TestRouterNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	w1 := fakeWorker(t, "w1", 0, nil)
	w2 := fakeWorker(t, "w2", 0, nil)
	w3 := fakeWorker(t, "w3", 0, nil)
	dead := w3.URL
	w3.Close()
	rt, err := NewRouter(RouterConfig{
		Workers:        []string{w1.URL, w2.URL, dead},
		HealthInterval: 10 * time.Millisecond, // exercise the prober too
		Metrics:        obs.NewMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if res, _ := rt.Do(context.Background(), testJob(i)); res.Status != serve.StatusOK {
			t.Fatalf("job %d: %q (%s)", i, res.Status, res.Error)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rt.client.CloseIdleConnections()
	w1.Close()
	w2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines: %d at baseline, %d after shutdown\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
