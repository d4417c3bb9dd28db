package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func decodeBatch(t *testing.T, body []byte) serve.BatchResponse {
	t.Helper()
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("bad batch response: %v\n%s", err, body)
	}
	return br
}

// TestServerEndToEnd drives a real rapserved instance over TCP: a mixed
// batch, a cache-hit resubmission visible in /metrics, /healthz, and a
// graceful shutdown that loses no in-flight work.
func TestServerEndToEnd(t *testing.T) {
	runner := serve.NewRunner(serve.RunnerConfig{Workers: 2, QueueDepth: 32})
	srv := serve.NewServer(runner)
	addrc := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe("127.0.0.1:0", func(a net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("ListenAndServe: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never came up")
	}

	// Mixed batch: one ok, one malformed, one that must time out.
	batch := serve.BatchRequest{Jobs: []serve.Job{
		{ID: "good", Source: goodSrc, Allocator: "rap", K: 5},
		{ID: "bad", Source: badSyntaxSrc},
		{ID: "slow", Source: slowSrc, TimeoutMS: 30},
	}}
	resp, body := postJSON(t, base+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d\n%s", resp.StatusCode, body)
	}
	br := decodeBatch(t, body)
	if br.Schema != serve.Schema || len(br.Results) != 3 {
		t.Fatalf("schema %q, %d results", br.Schema, len(br.Results))
	}
	wantStatus := map[string]string{"good": serve.StatusOK, "bad": serve.StatusInvalid, "slow": serve.StatusTimeout}
	for i, res := range br.Results {
		if res.ID != batch.Jobs[i].ID {
			t.Fatalf("result %d has ID %q, want %q", i, res.ID, batch.Jobs[i].ID)
		}
		if res.Status != wantStatus[res.ID] {
			t.Errorf("job %s: status %q (%s), want %q", res.ID, res.Status, res.Error, wantStatus[res.ID])
		}
	}
	if out := br.Results[0].Output; len(out) != 1 || out[0] != "42" {
		t.Errorf("good job output = %v, want [42]", out)
	}

	// Resubmit the good job: same content address, so it must be served
	// from the cache.
	resp, body = postJSON(t, base+"/v1/batch", serve.BatchRequest{Jobs: []serve.Job{{ID: "again", Source: goodSrc, Allocator: "rap", K: 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status = %d", resp.StatusCode)
	}
	if res := decodeBatch(t, body).Results[0]; !res.Cached || res.Status != serve.StatusOK {
		t.Errorf("resubmission: cached=%v status=%q, want a hit", res.Cached, res.Status)
	}

	// The hit and the per-status job counters are visible in /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatalf("bad /metrics body: %v", err)
	}
	mresp.Body.Close()
	if snap.Schema != obs.SnapshotSchema {
		t.Errorf("metrics schema = %q", snap.Schema)
	}
	for counter, min := range map[string]int64{
		"serve.cache.hits":    1,
		"serve.jobs.accepted": 4,
		"serve.jobs.ok":       2,
		"serve.jobs.invalid":  1,
		"serve.jobs.timeout":  1,
	} {
		if snap.Counters[counter] < min {
			t.Errorf("%s = %d, want >= %d", counter, snap.Counters[counter], min)
		}
	}

	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Healthz
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Status != "ok" || h.Workers != 2 {
		t.Errorf("healthz = %+v", h)
	}

	// Graceful shutdown with work in flight: fire a batch, wait until the
	// runner has accepted it, then shut down. The batch response must
	// still arrive complete — nothing accepted is lost.
	type post struct {
		resp *http.Response
		body []byte
	}
	done := make(chan post, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/batch", serve.BatchRequest{Jobs: []serve.Job{
			{ID: "inflight-1", Source: goodSrc, Allocator: "gra", K: 4},
			{ID: "inflight-2", Source: goodSrc, Allocator: "naive", K: 3},
		}})
		done <- post{resp, body}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runner.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case p := <-done:
		if p.resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight batch status = %d", p.resp.StatusCode)
		}
		for _, res := range decodeBatch(t, p.body).Results {
			if res.Status != serve.StatusOK {
				t.Errorf("in-flight job %s: status %q (%s) — lost to shutdown", res.ID, res.Status, res.Error)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight batch never completed")
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("server exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never exited after Shutdown")
	}
}

func TestSingleJobEndpoint(t *testing.T) {
	runner := serve.NewRunner(serve.RunnerConfig{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		runner.Drain(ctx)
	})
	ts := httptest.NewServer(serve.NewServer(runner).Handler())
	defer ts.Close()

	tests := []struct {
		name string
		body string
		code int
	}{
		{"ok", fmt.Sprintf(`{"source":%q,"allocator":"rap","k":5}`, goodSrc), http.StatusOK},
		{"invalid allocator", fmt.Sprintf(`{"source":%q,"allocator":"llvm","k":5}`, goodSrc), http.StatusBadRequest},
		{"syntax error", fmt.Sprintf(`{"source":%q}`, badSyntaxSrc), http.StatusBadRequest},
		{"timeout", fmt.Sprintf(`{"source":%q,"timeout_ms":30}`, slowSrc), http.StatusGatewayTimeout},
		{"unparsable body", `{"source":`, http.StatusBadRequest},
		{"unknown field", `{"source":"int main() { return 0; }","frobnicate":true}`, http.StatusBadRequest},
	}
	for _, tt := range tests {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tt.body))
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.code {
			t.Errorf("%s: status = %d, want %d", tt.name, resp.StatusCode, tt.code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

func TestBatchBackpressure(t *testing.T) {
	runner := serve.NewRunner(serve.RunnerConfig{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(serve.NewServer(runner).Handler())
	defer ts.Close()

	// Saturate the queue with a slow job submitted directly.
	ctx, cancel := context.WithCancel(context.Background())
	slow, err := runner.Submit(ctx, serve.Job{Source: slowSrc})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{Jobs: []serve.Job{{Source: goodSrc}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d\n%s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	cancel()
	slow.Wait()

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := runner.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{Jobs: []serve.Job{{Source: goodSrc}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining status = %d, want 503", resp.StatusCode)
	}
}

func TestBatchRequestLimits(t *testing.T) {
	runner := serve.NewRunner(serve.RunnerConfig{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		runner.Drain(ctx)
	})
	ts := httptest.NewServer(serve.NewServer(runner).Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/batch", serve.BatchRequest{Jobs: make([]serve.Job, serve.MaxBatchJobs+1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", resp.StatusCode)
	}
}

// TestServerBodyLimit413 is the regression test for the unbounded-body
// bug: requests past MaxRequestBytes answer 413 with a decodable error
// body on both job endpoints.
func TestServerBodyLimit413(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})
	front := httptest.NewServer(serve.NewServer(r).Handler())
	defer front.Close()

	huge := serve.Job{ID: "big", Source: "int main() { return 0; } //" + strings.Repeat("x", serve.MaxRequestBytes), Allocator: "rap", K: 5}
	for _, ep := range []struct {
		path string
		body any
	}{
		{"/v1/jobs", huge},
		{"/v1/batch", serve.BatchRequest{Jobs: []serve.Job{huge}}},
	} {
		resp, body := postJSON(t, front.URL+ep.path, ep.body)
		if resp.StatusCode != 413 {
			t.Errorf("%s: HTTP %d, want 413", ep.path, resp.StatusCode)
		}
		var eb struct {
			Error  string `json:"error"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: 413 body not a JSON error: %v (%s)", ep.path, err, body)
		}
	}

	// An honest job still fits comfortably under the same limit.
	resp, body := postJSON(t, front.URL+"/v1/jobs", serve.Job{ID: "ok", Source: goodSrc, Allocator: "rap", K: 5})
	if resp.StatusCode != 200 {
		t.Fatalf("small job: HTTP %d (%s)", resp.StatusCode, body)
	}
}
