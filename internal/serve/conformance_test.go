package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// reply is one HTTP response, read in full.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// TestHTTPConformance runs one table of requests against a Server over
// a Runner and a Server over a fleet Router in front of that Runner's
// Server. Both fronts run with NewServer's default limits, and every
// case must get the same status code from both; where the case is an
// error, the same body too, apart from a job result's wall-clock
// duration_ms.
func TestHTTPConformance(t *testing.T) {
	runner := newTestRunner(t, serve.RunnerConfig{Workers: 2})
	worker := serve.NewServer(runner)
	workerHTTP := httptest.NewServer(worker.Handler())
	t.Cleanup(workerHTTP.Close)

	rt, err := fleet.NewRouter(fleet.RouterConfig{Workers: []string{workerHTTP.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Drain(ctx); err != nil {
			t.Errorf("router drain: %v", err)
		}
	})
	routerHTTP := httptest.NewServer(serve.NewServer(rt).Handler())
	t.Cleanup(routerHTTP.Close)
	backends := []struct{ name, url string }{{"runner", workerHTTP.URL}, {"router", routerHTTP.URL}}

	job := fmt.Sprintf(`{"source":%q,"allocator":"rap","k":5}`, goodSrc)
	overMaxBatch := `{"jobs":[{}` + strings.Repeat(`,{}`, worker.MaxBatch) + `]}`
	hugeSource := fmt.Sprintf(`{"source":"%s"}`, strings.Repeat("x", int(worker.MaxBodyBytes)))
	// Sources that would overflow a worker's stack or exhaust its memory
	// without the front end's bounds.
	const deep = 100_000
	hostile := func(id, src string) string {
		return fmt.Sprintf(`{"id":%q,"source":%q,"allocator":"rap","k":5}`, id, src)
	}
	deepParens := hostile("deep-parens", "int main() { return "+strings.Repeat("(", deep)+"1"+strings.Repeat(")", deep)+"; }")
	longChain := hostile("long-chain", "int main() { int x = 0"+strings.Repeat("+1", deep)+"; return x; }")
	hugeGlobal := hostile("huge-global", "int g[400000000]; int main() { return g[0]; }")

	cases := []struct {
		name, method, path, trace, body string
		code                            int
		check                           func(t *testing.T, r reply)
	}{
		{name: "GET /v1/jobs", method: "GET", path: "/v1/jobs", code: http.StatusMethodNotAllowed},
		{name: "GET /v1/batch", method: "GET", path: "/v1/batch", code: http.StatusMethodNotAllowed},
		{name: "malformed job", path: "/v1/jobs", body: `{"source":`, code: http.StatusBadRequest},
		{name: "malformed batch", path: "/v1/batch", body: `{"jobs":[`, code: http.StatusBadRequest},
		{name: "unknown job field", path: "/v1/jobs", body: `{"source":"int main() { return 0; }","frobnicate":true}`, code: http.StatusBadRequest},
		{name: "removed job field remat", path: "/v1/jobs", body: strings.TrimSuffix(job, "}") + `,"remat":true}`, code: http.StatusBadRequest},
		{name: "removed job field coalesce", path: "/v1/jobs", body: strings.TrimSuffix(job, "}") + `,"coalesce":true}`, code: http.StatusBadRequest},
		{name: "unknown batch field", path: "/v1/batch", body: `{"jobs":[],"frobnicate":true}`, code: http.StatusBadRequest},
		{name: "empty batch", path: "/v1/batch", body: `{"jobs":[]}`, code: http.StatusBadRequest},
		{name: "batch over MaxBatch", path: "/v1/batch", body: overMaxBatch, code: http.StatusBadRequest},
		{name: "job over MaxBodyBytes", path: "/v1/jobs", body: hugeSource, code: http.StatusRequestEntityTooLarge},
		{name: "batch over MaxBodyBytes", path: "/v1/batch", body: `{"jobs":[` + hugeSource + `]}`, code: http.StatusRequestEntityTooLarge},
		{name: "deep parentheses", path: "/v1/jobs", body: deepParens, code: http.StatusBadRequest},
		{name: "long + chain", path: "/v1/jobs", body: longChain, code: http.StatusBadRequest},
		{name: "huge global", path: "/v1/jobs", body: hugeGlobal, code: http.StatusBadRequest},
		{name: "trace ID names a job", path: "/v1/jobs", trace: "conf-1", body: job, code: http.StatusOK,
			check: func(t *testing.T, r reply) {
				var res serve.Result
				if err := json.Unmarshal(r.body, &res); err != nil || res.ID != "conf-1" || res.Status != serve.StatusOK {
					t.Errorf("result %+v (%v), want ok conf-1", res, err)
				}
				if got := r.header.Get(serve.TraceHeader); got != "conf-1" {
					t.Errorf("echoed trace ID %q, want conf-1", got)
				}
			}},
		{name: "trace ID seeds a batch", path: "/v1/batch", trace: "conf-2", body: `{"jobs":[` + job + `,` + job + `]}`, code: http.StatusOK,
			check: func(t *testing.T, r reply) {
				var br serve.BatchResponse
				if err := json.Unmarshal(r.body, &br); err != nil || len(br.Results) != 2 {
					t.Fatalf("bad batch body (%v): %.300s", err, r.body)
				}
				for i, res := range br.Results {
					if want := fmt.Sprintf("conf-2-%d", i); res.ID != want || res.Status != serve.StatusOK {
						t.Errorf("result %d: id %q status %q (%s), want ok %q", i, res.ID, res.Status, res.Error, want)
					}
				}
				if got := r.header.Get(serve.TraceHeader); got != "conf-2" {
					t.Errorf("echoed trace ID %q, want conf-2", got)
				}
			}},
		{name: "metrics JSON", method: "GET", path: "/metrics", code: http.StatusOK,
			check: func(t *testing.T, r reply) {
				var snap obs.Snapshot
				if err := json.Unmarshal(r.body, &snap); err != nil || snap.Schema != obs.SnapshotSchema {
					t.Fatalf("bad /metrics body (%v): %.200s", err, r.body)
				}
				if snap.Counters["serve.http.jobs.requests"] == 0 {
					t.Error("serve.http.jobs.requests not counted")
				}
			}},
		{name: "metrics prom", method: "GET", path: "/metrics?format=prom", code: http.StatusOK,
			check: func(t *testing.T, r reply) {
				if ct := r.header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
					t.Errorf("Content-Type %q", ct)
				}
				if !bytes.Contains(r.body, []byte("\nserve_http_jobs_ns_count ")) {
					t.Error("no serve_http_jobs_ns_count series")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var replies []reply
			for _, b := range backends {
				r := request(t, tc.method, b.url+tc.path, tc.trace, tc.body)
				if r.code != tc.code {
					t.Errorf("%s: HTTP %d, want %d\n%.300s", b.name, r.code, tc.code, r.body)
				}
				if r.code >= 400 {
					var eb struct{ Error, Status string }
					if err := json.Unmarshal(r.body, &eb); err != nil || eb.Error == "" || eb.Status != serve.StatusInvalid {
						t.Errorf("%s: error body %q (%v), want an invalid-status JSON error", b.name, r.body, err)
					}
				}
				if tc.check != nil {
					t.Run(b.name, func(t *testing.T) { tc.check(t, r) })
				}
				replies = append(replies, r)
			}
			if tc.code >= 400 && !bytes.Equal(withoutDuration(replies[0].body), withoutDuration(replies[1].body)) {
				t.Errorf("error bodies differ:\nrunner: %s\nrouter: %s", replies[0].body, replies[1].body)
			}
		})
	}
}

// withoutDuration drops duration_ms, the wall clock of the job behind a
// result body, and leaves every other field for comparison.
func withoutDuration(body []byte) []byte {
	var fields map[string]json.RawMessage
	if json.Unmarshal(body, &fields) != nil {
		return body
	}
	delete(fields, "duration_ms")
	out, err := json.Marshal(fields)
	if err != nil {
		return body
	}
	return out
}

// request sends one request (POST unless method says otherwise) and
// reads the whole reply.
func request(t *testing.T, method, url, trace, body string) reply {
	t.Helper()
	if method == "" {
		method = http.MethodPost
	}
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if trace != "" {
		req.Header.Set(serve.TraceHeader, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{code: resp.StatusCode, header: resp.Header, body: b}
}
