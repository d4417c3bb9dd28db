package serve_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/randprog"
	"repro/internal/serve"
)

// slowSrc loops long enough (hundreds of milliseconds at interpreter
// speed) that a small per-job timeout always fires first; the
// interpreter polls its context every few thousand cycles, so the abort
// is prompt.
const slowSrc = `int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 200000000; i = i + 1) { s = s + i; }
	return 0;
}`

const badSyntaxSrc = `int main( { return`

func newTestRunner(t *testing.T, cfg serve.RunnerConfig) *serve.Runner {
	t.Helper()
	r := serve.NewRunner(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return r
}

func TestRunnerDoOK(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 2})
	res, err := r.Do(context.Background(), serve.Job{ID: "j1", Source: goodSrc, Allocator: "rap", K: 5})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Status != serve.StatusOK {
		t.Fatalf("status = %q (%s), want ok", res.Status, res.Error)
	}
	if res.ID != "j1" {
		t.Errorf("ID = %q, want j1", res.ID)
	}
	if len(res.Output) != 1 || res.Output[0] != "42" {
		t.Errorf("output = %v, want [42]", res.Output)
	}
	if res.Ret != 7 {
		t.Errorf("ret = %d, want 7", res.Ret)
	}
	if res.Code == "" || res.Total == nil || res.Total.Cycles == 0 {
		t.Errorf("missing code/stats: code %d bytes, total %+v", len(res.Code), res.Total)
	}
}

func TestRunnerVerifiedJob(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})
	res, err := r.Do(context.Background(), serve.Job{Source: goodSrc, Allocator: "rap", K: 3, Verify: true})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Status != serve.StatusOK || !res.Verified {
		t.Fatalf("status=%q verified=%v (%s), want ok/true", res.Status, res.Verified, res.Error)
	}
}

func TestRunnerCompareJob(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})
	res, err := r.Do(context.Background(), serve.Job{Source: goodSrc, Mode: serve.ModeCompare, Ks: []int{3, 5}})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Status != serve.StatusOK {
		t.Fatalf("status = %q (%s), want ok", res.Status, res.Error)
	}
	ks := map[int]bool{}
	for _, m := range res.Measurements {
		ks[m.K] = true
	}
	if !ks[3] || !ks[5] {
		t.Errorf("measurements cover ks %v, want 3 and 5 (rows: %d)", ks, len(res.Measurements))
	}
}

func TestRunnerInvalidJobs(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})
	for name, job := range map[string]serve.Job{
		"empty source":  {},
		"bad allocator": {Source: goodSrc, Allocator: "llvm", K: 5},
		"bad k":         {Source: goodSrc, Allocator: "rap", K: 1},
		"syntax error":  {Source: badSyntaxSrc},
	} {
		res, err := r.Do(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: Do: %v", name, err)
		}
		if res.Status != serve.StatusInvalid {
			t.Errorf("%s: status = %q (%s), want invalid", name, res.Status, res.Error)
		}
		if res.Error == "" {
			t.Errorf("%s: invalid result has no error detail", name)
		}
	}
}

func TestRunnerTimeout(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})
	res, err := r.Do(context.Background(), serve.Job{Source: slowSrc, TimeoutMS: 50})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Status != serve.StatusTimeout {
		t.Fatalf("status = %q (%s), want timeout", res.Status, res.Error)
	}
	// A timeout describes the schedule, not the program: it must not be
	// cached, so a rerun with a generous deadline succeeds.
	res, err = r.Do(context.Background(), serve.Job{Source: slowSrc, TimeoutMS: 50})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Cached {
		t.Error("timed-out result was served from cache")
	}
}

// TestRunnerClampsMaxCycles: the runner's MaxCycles is a ceiling, not
// just a default. A job asking for far more, or for nothing, runs under
// it, so a loop past the ceiling fails on the cycle budget; a job that
// fits still runs.
func TestRunnerClampsMaxCycles(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1, MaxCycles: 100_000})
	loop := `int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 1000000; i = i + 1) { s = s + i; }
	print(s);
	return 0;
}`
	for _, budget := range []int64{0, 1 << 40} {
		res, err := r.Do(context.Background(), serve.Job{Source: loop, MaxCycles: budget})
		if err != nil {
			t.Fatalf("max_cycles %d: Do: %v", budget, err)
		}
		if res.Status != serve.StatusError || !strings.Contains(res.Error, "cycle budget exhausted") {
			t.Errorf("max_cycles %d: status %q (%s), want the ceiling's cycle budget error", budget, res.Status, res.Error)
		}
	}
	res, err := r.Do(context.Background(), serve.Job{Source: goodSrc, MaxCycles: 1 << 40})
	if err != nil || res.Status != serve.StatusOK {
		t.Fatalf("short job: %v %q (%s)", err, res.Status, res.Error)
	}
}

func TestRunnerCanceled(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := r.Submit(ctx, serve.Job{Source: slowSrc})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker start the job
	cancel()
	res := tk.Wait()
	if res.Status != serve.StatusCanceled {
		t.Fatalf("status = %q (%s), want canceled", res.Status, res.Error)
	}
}

func TestRunnerCacheHit(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 2})
	job := serve.Job{ID: "first", Source: goodSrc, Allocator: "rap", K: 5}
	res1, err := r.Do(context.Background(), job)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res1.Cached {
		t.Fatal("first run reported cached")
	}
	// Same work under a different correlation ID must hit: the ID is not
	// part of the content address.
	job.ID = "second"
	res2, err := r.Do(context.Background(), job)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res2.Cached {
		t.Fatal("identical job missed the cache")
	}
	if res2.ID != "second" {
		t.Errorf("cached result ID = %q, want the new job's", res2.ID)
	}
	if res2.Code != res1.Code || res2.Ret != res1.Ret {
		t.Error("cached payload differs from the original result")
	}
	snap := r.Metrics().Snapshot().Counters
	if snap["serve.cache.hits"] != 1 {
		t.Errorf("serve.cache.hits = %d, want 1", snap["serve.cache.hits"])
	}
	if r.CacheLen() != 1 {
		t.Errorf("cache holds %d entries, want 1", r.CacheLen())
	}
}

func TestRunnerQueueFullAndDraining(t *testing.T) {
	r := serve.NewRunner(serve.RunnerConfig{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One slow job saturates the queue bound (pending counts running
	// jobs too); the next submit must be turned away, not queued.
	slow, err := r.Submit(ctx, serve.Job{Source: slowSrc})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := r.Submit(context.Background(), serve.Job{Source: goodSrc}); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if r.Metrics().Snapshot().Counters["serve.queue.rejects"] != 1 {
		t.Error("reject not counted")
	}
	cancel()
	slow.Wait()

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := r.Submit(context.Background(), serve.Job{Source: goodSrc}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	if r.Health().Status != "draining" {
		t.Errorf("health status = %q, want draining", r.Health().Status)
	}
}

func TestRunnerDrainFinishesAcceptedJobs(t *testing.T) {
	r := serve.NewRunner(serve.RunnerConfig{Workers: 2, QueueDepth: 16})
	var tasks []*serve.Task
	for i := 0; i < 8; i++ {
		tk, err := r.Submit(context.Background(), serve.Job{ID: fmt.Sprintf("j%d", i), Source: goodSrc, Allocator: "gra", K: 3 + i%4})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		tasks = append(tasks, tk)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Every accepted job has a real result: graceful drain loses nothing.
	for i, tk := range tasks {
		if res := tk.Wait(); res.Status != serve.StatusOK {
			t.Errorf("job %d: status %q (%s) after drain", i, res.Status, res.Error)
		}
	}
	if r.Pending() != 0 {
		t.Errorf("pending = %d after drain", r.Pending())
	}
}

// TestRunnerNoGoroutineLeak runs ok, invalid, timed-out and cancelled
// jobs, drains, and asserts the goroutine count settles back to the
// baseline — the manual stand-in for a leak detector.
func TestRunnerNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := serve.NewRunner(serve.RunnerConfig{Workers: 4, QueueDepth: 32})
	ctx, cancel := context.WithCancel(context.Background())
	var tasks []*serve.Task
	for i := 0; i < 4; i++ {
		jobs := []serve.Job{
			{Source: goodSrc, Allocator: "rap", K: 3 + i},
			{Source: badSyntaxSrc},
			{Source: slowSrc, TimeoutMS: 30},
		}
		for _, job := range jobs {
			tk, err := r.Submit(ctx, job)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			tasks = append(tasks, tk)
		}
	}
	cancel() // in-flight slow jobs become canceled instead of timing out
	for _, tk := range tasks {
		tk.Wait()
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Timed-out units may still be unwinding (the interpreter notices the
	// dead context within a few thousand cycles); poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d baseline, %d after drain\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunnerMixedBatch100 is the acceptance scenario: a 100-job batch
// mixing valid, malformed and timing-out jobs. Every job gets its own
// verdict (no cross-job contamination), valid results are identical to
// the single-shot path (serve.ExecuteJob is what rapcc runs), and the
// duplicate jobs in the mix surface as cache hits.
func TestRunnerMixedBatch100(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 4, QueueDepth: 128})

	srcAt := func(i int) string {
		return fmt.Sprintf(`int main() { int i; int s; s = 0; for (i = 0; i < %d; i = i + 1) { s = s + i; } print(s); return 0; }`, 100+i)
	}
	jobs := make([]serve.Job, 100)
	want := make([]string, 100)
	for i := range jobs {
		id := fmt.Sprintf("job-%03d", i)
		switch i % 5 {
		case 0, 1: // valid, distinct per i (i/5 keeps duplicates at bay)
			jobs[i] = serve.Job{ID: id, Source: srcAt(i / 5 * 5), Allocator: "rap", K: 3 + i%4}
			want[i] = serve.StatusOK
		case 2: // valid duplicate of the block's first job (filled below)
			jobs[i] = serve.Job{ID: id}
			want[i] = serve.StatusOK
		case 3: // malformed
			if i%2 == 1 {
				jobs[i] = serve.Job{ID: id, Source: badSyntaxSrc}
			} else {
				jobs[i] = serve.Job{ID: id, Source: goodSrc, Allocator: "llvm", K: 5}
			}
			want[i] = serve.StatusInvalid
		case 4: // runs forever relative to its deadline
			jobs[i] = serve.Job{ID: id, Source: slowSrc, TimeoutMS: 20}
			want[i] = serve.StatusTimeout
		}
	}
	for i := range jobs {
		if i%5 == 2 {
			dup := jobs[i-2]
			jobs[i] = serve.Job{ID: jobs[i].ID, Source: dup.Source, Allocator: dup.Allocator, K: dup.K}
		}
	}

	results, err := r.DoBatch(context.Background(), jobs)
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	hits := 0
	for i, res := range results {
		if res.ID != jobs[i].ID {
			t.Fatalf("result %d carries ID %q, want %q — cross-job contamination", i, res.ID, jobs[i].ID)
		}
		if res.Status != want[i] {
			t.Errorf("job %s: status %q (%s), want %q", jobs[i].ID, res.Status, res.Error, want[i])
		}
		if res.Cached {
			hits++
		}
	}
	// In-batch duplicates can race their originals (both miss, both
	// compute — still correct), so the guaranteed hit is a resubmission
	// after the batch completed.
	rerun, err := r.Do(context.Background(), serve.Job{ID: "rerun", Source: jobs[0].Source, Allocator: jobs[0].Allocator, K: jobs[0].K})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !rerun.Cached || rerun.Status != serve.StatusOK {
		t.Errorf("post-batch rerun: cached=%v status=%q, want a cache hit", rerun.Cached, rerun.Status)
	}
	snap := r.Metrics().Snapshot().Counters
	if min := int64(hits + 1); snap["serve.cache.hits"] < min {
		t.Errorf("serve.cache.hits = %d, want >= %d", snap["serve.cache.hits"], min)
	}

	// Determinism: served results are byte-identical to the single-shot
	// path for the same inputs (spot-check the valid jobs).
	for i := 0; i < len(jobs); i += 10 {
		if want[i] != serve.StatusOK {
			continue
		}
		out, err := serve.ExecuteJob(context.Background(), jobs[i], serve.ExecOptions{})
		if err != nil {
			t.Fatalf("ExecuteJob(%s): %v", jobs[i].ID, err)
		}
		res := results[i]
		if res.Code != out.Prog.String() {
			t.Errorf("job %s: served code differs from single-shot", jobs[i].ID)
		}
		if res.Ret != out.Run.Ret || len(res.Output) != len(out.Run.Output) {
			t.Errorf("job %s: served run (ret %d, %d lines) differs from single-shot (ret %d, %d lines)",
				jobs[i].ID, res.Ret, len(res.Output), out.Run.Ret, len(out.Run.Output))
		}
		for j := range res.Output {
			if res.Output[j] != out.Run.Output[j] {
				t.Errorf("job %s: output line %d differs", jobs[i].ID, j)
			}
		}
	}
}

// TestAutoIDReservedNamespace is the regression test for the ID
// collision bug: runner-assigned IDs live in their own "auto-"
// namespace, clients may not submit into it, and client IDs that used
// to collide with the old job-<seq> scheme still work.
func TestAutoIDReservedNamespace(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})

	res, err := r.Do(context.Background(), serve.Job{Source: goodSrc, Allocator: "rap", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.ID, serve.AutoIDPrefix) {
		t.Errorf("anonymous job ID = %q, want %s<n>", res.ID, serve.AutoIDPrefix)
	}

	res, err = r.Do(context.Background(), serve.Job{ID: serve.AutoIDPrefix + "1", Source: goodSrc, Allocator: "rap", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serve.StatusInvalid {
		t.Errorf("client job in reserved namespace: status %q, want invalid", res.Status)
	}
	if !strings.Contains(res.Error, serve.AutoIDPrefix) {
		t.Errorf("rejection does not name the reserved namespace: %q", res.Error)
	}

	// "job-1" was the old auto-assigned shape; clients own it now.
	res, err = r.Do(context.Background(), serve.Job{ID: "job-1", Source: goodSrc, Allocator: "rap", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != serve.StatusOK || res.ID != "job-1" {
		t.Errorf("client ID job-1: status %q id %q, want ok/job-1", res.Status, res.ID)
	}
}

// TestRunnerMetricKeysBoundedByFunctionNames: a daemon's registry must
// not grow with the function names its clients send. Fifty jobs of one
// shape that differ only in a function's name leave the same metric key
// set as the first job did.
func TestRunnerMetricKeysBoundedByFunctionNames(t *testing.T) {
	r := newTestRunner(t, serve.RunnerConfig{Workers: 1})
	keys := func() map[string]bool {
		snap := r.MetricsSnapshot()
		set := map[string]bool{}
		for k := range snap.Counters {
			set["counter "+k] = true
		}
		for k := range snap.Hists {
			set["hist "+k] = true
		}
		for k := range snap.TimingsNS {
			set["timing "+k] = true
		}
		return set
	}
	var first map[string]bool
	for i := 1; i <= 50; i++ {
		src := fmt.Sprintf("int fn%d(int a) { return a + 1; } int main() { print(fn%d(%d)); return 0; }", i, i, i)
		res, err := r.Do(context.Background(), serve.Job{Source: src, Allocator: "rap", K: 5})
		if err != nil || res.Status != serve.StatusOK || res.Cached {
			t.Fatalf("job %d: err %v, status %q (%s), cached %v", i, err, res.Status, res.Error, res.Cached)
		}
		if i == 1 {
			first = keys()
		}
	}
	last := keys()
	var changed []string
	for k := range last {
		if !first[k] {
			changed = append(changed, "+"+k)
		}
	}
	for k := range first {
		if !last[k] {
			changed = append(changed, "-"+k)
		}
	}
	if len(changed) > 0 {
		sort.Strings(changed)
		t.Errorf("metric keys changed between job 1 and job 50 (%d of %d after job 1): %v", len(changed), len(first), changed)
	}
}

// TestRunnerMetricsMatchAcrossWorkers: jobs record into the runner's one
// registry from every worker, and its deterministic sections depend only
// on the work done. The same distinct randprog jobs, verified and run
// under GRA, RAP and IRC, leave equal counters and value histograms with
// one worker and with four. The gauges differ by construction
// (serve.workers, serve.queue.capacity) and are left out.
func TestRunnerMetricsMatchAcrossWorkers(t *testing.T) {
	allocs := []string{"gra", "rap", "irc"}
	jobs := make([]serve.Job, 24)
	for i := range jobs {
		jobs[i] = serve.Job{
			ID:        fmt.Sprintf("w-%d", i),
			Source:    randprog.Generate(int64(i), randprog.DefaultConfig()),
			Allocator: allocs[i%len(allocs)],
			K:         3 + i%5,
			Verify:    true,
		}
	}
	snapshot := func(workers int) obs.Snapshot {
		r := newTestRunner(t, serve.RunnerConfig{Workers: workers, QueueDepth: len(jobs)})
		results, err := r.DoBatch(context.Background(), jobs)
		if err != nil {
			t.Fatalf("%d workers: DoBatch: %v", workers, err)
		}
		for i, res := range results {
			if res.Status != serve.StatusOK || res.Cached {
				t.Fatalf("%d workers: job %s: status %q (%s), cached %v; want a fresh ok",
					workers, jobs[i].ID, res.Status, res.Error, res.Cached)
			}
		}
		return r.Metrics().Snapshot().Deterministic()
	}
	one, four := snapshot(1), snapshot(4)
	if !reflect.DeepEqual(one.Counters, four.Counters) {
		t.Errorf("counters differ:\n1 worker:  %v\n4 workers: %v", one.Counters, four.Counters)
	}
	if !reflect.DeepEqual(one.Hists, four.Hists) {
		t.Errorf("value histograms differ:\n1 worker:  %v\n4 workers: %v", one.Hists, four.Hists)
	}
	for _, name := range []string{"gra.spill_rounds", "rap.spill_rounds", "irc.funcs_allocated", "serve.jobs.ok"} {
		if one.Counters[name] == 0 {
			t.Errorf("%s is 0: the comparison is vacuous", name)
		}
	}
	if len(one.Hists) == 0 {
		t.Error("no value histograms recorded: the comparison is vacuous")
	}
}
