package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// Stream lengths. A run stops early if it exhausts its stream; both are
// beyond what a 20 s run on a 2-CPU host reaches.
const (
	compileStreamLen = 10 * compileUniverse
	repeatStreamLen  = 5000
	// refStackWords sizes the interpreter stack of the setup's reference
	// runs. randprog programs never recurse, so it always suffices; a run
	// that overflows it is retried with the default stack.
	refStackWords = 1 << 16
)

// serveWorkers is the runner's worker count and the number of closed-loop
// clients, matching a 2-CPU host.
const serveWorkers = 2

// serveEnv is one set-up serve workload: its runner and, for
// serve-repeat, the store backing it.
type serveEnv struct {
	runner  *serve.Runner
	metrics *obs.Metrics
	store   *store.Store
	dir     string
}

func newServeEnv(workDir string, withStore bool) (*serveEnv, error) {
	e := &serveEnv{metrics: obs.NewMetrics()}
	cfg := serve.RunnerConfig{Workers: serveWorkers, Tracer: (*obs.Tracer)(nil).WithMetrics(e.metrics)}
	if withStore {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workDir, "store-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.store, err = store.Open(filepath.Join(dir, "artifacts.log"), store.Options{Metrics: e.metrics}); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cfg.Store = e.store
	}
	e.runner = serve.NewRunner(cfg)
	return e, nil
}

// close drains the runner, then closes and deletes the store.
func (e *serveEnv) close() {
	_ = e.runner.Drain(context.Background()) // Background never expires
	if e.store != nil {
		_ = e.store.Close() // the store is deleted next
		os.RemoveAll(e.dir)
	}
}

// closedLoop runs jobs 0, 1, ... from `clients` goroutines, each sending
// its next job only after the previous one returned, until the window
// has passed and at least minOps jobs ran, or the stream of n jobs ends.
// Jobs are taken in index order, so the jobs that ran are exactly
// [0, returned count).
func closedLoop(clients, n, minOps int, window time.Duration, do func(i int)) int {
	var next, ran atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (i >= minOps && time.Since(start) >= window) {
					return
				}
				do(i)
				ran.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(ran.Load())
}

// outcome is one served job as the closed loop saw it. The result's
// allocated code is moved out of res: its digest is always kept, the code
// itself only for the jobs the quality guards sum over, so a long run's
// outcomes do not grow the heap the run measures.
type outcome struct {
	res     serve.Result
	code    string
	codeSum [32]byte
	err     error
	ms      float64
}

func newOutcome(res serve.Result, err error, ms float64, keepCode bool) outcome {
	o := outcome{res: res, codeSum: sha256.Sum256([]byte(res.Code)), err: err, ms: ms}
	if keepCode {
		o.code = res.Code
	}
	o.res.Code = ""
	return o
}

// serveSlice is the length of the slices a serve run's window is cut
// into.
const serveSlice = time.Second

// serveLoop drives jobs through the runner from serveWorkers clients and
// returns the outcomes of the jobs that ran, the window's slices and the
// process work the jobs took. guard(i) says whether job i is one the
// quality guards sum over.
func serveLoop(e *serveEnv, n, minOps int, window time.Duration, job func(i int) serve.Job, guard func(i int) bool) ([]outcome, []slice, delta) {
	out := make([]outcome, n)
	var done atomic.Int64
	before := sampleProc()
	smp := startSampler(func() int { return int(done.Load()) }, serveSlice)
	ran := closedLoop(serveWorkers, n, minOps, window, func(i int) {
		j := job(i)
		start := time.Now()
		res, err := e.runner.Do(context.Background(), j)
		out[i] = newOutcome(res, err, float64(time.Since(start))/1e6, guard(i))
		done.Add(1)
	})
	slices := smp.stop(serveSlice)
	return out[:ran], slices, before.to(sampleProc())
}

// codeQuality parses the allocated code of a job result and counts its
// spill loads and stores and its instructions.
func codeQuality(code string) (spillOps, instrs float64, err error) {
	p, err := ir.ParseProgram(code)
	if err != nil {
		return 0, 0, err
	}
	for _, f := range p.Funcs {
		spillOps += float64(staticSpillOps(f))
		instrs += float64(staticSize(f))
	}
	return spillOps, instrs, nil
}

// guardQuality sums codeQuality over the guard jobs' outcomes; every guard
// job of the stream's first n must have run. A failed job, which the
// run's gate counts, has no code to sum.
func guardQuality(outs []outcome, n int, guard func(i int) bool) (spillOps, instrs float64, err error) {
	if len(outs) < n {
		return 0, 0, fmt.Errorf("ran %d jobs, the quality guards need the first %d", len(outs), n)
	}
	for i, o := range outs[:n] {
		if !guard(i) || o.err != nil || o.res.Status != serve.StatusOK {
			continue
		}
		s, c, err := codeQuality(o.code)
		if err != nil {
			return 0, 0, fmt.Errorf("job %d code: %w", i, err)
		}
		spillOps += s
		instrs += c
	}
	return spillOps, instrs, nil
}

// runServeCompile sends the serve-compile stream through a runner with
// no store. A job's last use is a full pass ago, long evicted from the
// result cache, so every job misses.
func runServeCompile(c runConfig) (*record, error) {
	type env struct {
		jobs []serve.Job
		*serveEnv
	}
	e, setups, err := timeSetups(func() (env, error) {
		jobs := compileStream(c.seed, compileStreamLen)
		se, err := newServeEnv(c.workDir, false)
		return env{jobs, se}, err
	}, func(e env) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	pass := compilePass()
	guard := func(i int) bool { return i < pass }
	outs, slices, d := serveLoop(e.serveEnv, len(e.jobs), max(minOps, pass), c.window, func(i int) serve.Job { return e.jobs[i] }, guard)
	rec := newRecord(len(outs), 0)
	var lat []float64
	for i, o := range outs {
		lat = append(lat, o.ms)
		if err := compileJobCheck(o); err != nil {
			c.logf("serve-compile job %d: %v", i, err)
			rec.Failed++
		}
	}
	spill, instrs, err := guardQuality(outs, pass, guard)
	if err != nil {
		return nil, err
	}
	serveExtras(e.serveEnv, rec.Extra)
	return rec, endToEnd(setups, lat, len(outs), slices, d, spill, instrs, rec)
}

// compileJobCheck is serve-compile's gate: the job succeeded and the
// verifier accepted its allocation.
func compileJobCheck(o outcome) error {
	switch {
	case o.err != nil:
		return o.err
	case o.res.Status != serve.StatusOK:
		return fmt.Errorf("status %s: %s", o.res.Status, o.res.Error)
	case !o.res.Verified:
		return fmt.Errorf("allocation not verified")
	}
	return nil
}

// serveExtras records the runner's cache, memo and store counters.
func serveExtras(e *serveEnv, extra map[string]float64) {
	s := e.metrics.Snapshot().Counters
	extra["serve.cache.hit_ratio"] = ratio(s["serve.cache.hits"], s["serve.cache.misses"])
	extra["serve.cache.disk_hits"] = float64(s["serve.cache.disk_hits"])
	extra["rap.memo.hit_ratio"] = ratio(s["rap.memo.hits"], s["rap.memo.misses"])
	extra["serve.queue.rejects"] = float64(s["serve.queue.rejects"])
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// repeatEnv is a set-up serve-repeat workload: the stream, the
// unallocated reference result of each of its programs, and a runner
// backed by a fresh store.
type repeatEnv struct {
	stream repeatStream
	refs   []*interp.Result
	*serveEnv
}

func setupServeRepeat(c runConfig) (repeatEnv, error) {
	s := newRepeatStream(c.seed, repeatStreamLen)
	refs := make([]*interp.Result, len(s.Progs))
	for i, src := range s.Progs {
		var err error
		if refs[i], err = reference(src); err != nil {
			return repeatEnv{}, fmt.Errorf("program %d reference: %w", i, err)
		}
	}
	se, err := newServeEnv(c.workDir, true)
	return repeatEnv{s, refs, se}, err
}

// reference runs src unallocated: the oracle serve-repeat's outputs are
// checked against.
func reference(src string) (*interp.Result, error) {
	p, err := core.Frontend(src, lower.Options{}, nil)
	if err != nil {
		return nil, err
	}
	res, err := interp.Run(p, interp.Options{StackWords: refStackWords})
	if err != nil {
		return core.Run(p)
	}
	return res, nil
}

// repeatChecker is serve-repeat's gate. Every job's output and return
// value equal its program's reference; every result for one cache key,
// fresh or cached, is byte-identical apart from its ID, cache flag and
// duration.
type repeatChecker struct {
	env   repeatEnv
	fresh map[string][32]byte
}

func (rc *repeatChecker) check(i int, o outcome) error {
	if o.err != nil {
		return o.err
	}
	if o.res.Status != serve.StatusOK {
		return fmt.Errorf("status %s: %s", o.res.Status, o.res.Error)
	}
	job := rc.env.stream.job(i)
	ref := rc.env.refs[rc.env.stream.Jobs[i].Prog]
	if !reflect.DeepEqual(o.res.Output, ref.Output) || o.res.Ret != ref.Ret {
		return fmt.Errorf("output differs from the unallocated reference")
	}
	norm := o.res
	norm.ID, norm.Cached, norm.DurationMS = "", false, 0
	b, err := json.Marshal(norm)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(append(b, o.codeSum[:]...))
	key := job.CacheKey()
	if prev, ok := rc.fresh[key]; ok {
		if prev != sum {
			return fmt.Errorf("result differs from the first result for its cache key (cached=%v)", o.res.Cached)
		}
	} else {
		rc.fresh[key] = sum
	}
	return nil
}

// runServeRepeat sends the serve-repeat stream through a store-backed
// runner.
func runServeRepeat(c runConfig) (*record, error) {
	e, setups, err := timeSetups(func() (repeatEnv, error) { return setupServeRepeat(c) },
		func(e repeatEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	guardEnd := e.stream.guardEnd()
	outs, slices, d := serveLoop(e.serveEnv, len(e.stream.Jobs), max(minOps, guardEnd), c.window, e.stream.job, e.stream.guard)
	rec := newRecord(len(outs), 0)
	rc := &repeatChecker{env: e, fresh: map[string][32]byte{}}
	var lat []float64
	var cycles int64
	repeats := 0
	for i, o := range outs {
		lat = append(lat, o.ms)
		if err := rc.check(i, o); err != nil {
			c.logf("serve-repeat job %d: %v", i, err)
			rec.Failed++
			continue
		}
		if e.stream.Jobs[i].Kind == kindRepeat {
			repeats++
		}
		if e.stream.guard(i) {
			cycles += o.res.Total.Cycles
		}
	}
	spill, instrs, err := guardQuality(outs, guardEnd, e.stream.guard)
	if err != nil {
		return nil, err
	}
	serveExtras(e.serveEnv, rec.Extra)
	rec.Extra["exec_mcycles"] = float64(cycles) / 1e6
	rec.Extra["repeat_share"] = float64(repeats) / float64(len(outs))
	rec.Extra["store.log_mb"] = float64(e.store.SizeBytes()) / 1e6
	return rec, endToEnd(setups, lat, len(outs), slices, d, spill, instrs, rec)
}

// traceServe replays a serve stream from one client. Each job is timed
// through Runner.Do; a job the runner computed (a cache miss) is then
// replayed through the split pipeline, whose code, verification and run
// must equal the runner's result.
func traceServe(c runConfig, e *serveEnv, n int, job func(i int) serve.Job, ref func(i int) *interp.Result, check func(i int, o outcome) error) (*record, error) {
	r := newRecorder()
	var sl serveLayer
	var realWall, splitWall time.Duration
	ops, failed := 0, 0
	before := sampleProc()
	for ; ops < n && (ops < minTraceOps || time.Since(before.wall) < c.window); ops++ {
		j := job(ops)
		r.op = ops
		start := r.now()
		res, err := e.runner.Do(context.Background(), j)
		r.record(spanServe, start)
		doTime := time.Duration(r.now() - start)
		if err := check(ops, newOutcome(res, err, 0, false)); err != nil {
			c.logf("traced job %d: %v", ops, err)
			failed++
			continue
		}
		if res.Cached {
			sl.hitMS = append(sl.hitMS, doTime.Seconds()*1e3)
			continue
		}
		sl.missMS = append(sl.missMS, doTime.Seconds()*1e3)
		start = r.now()
		err = splitJob(r, ops, j, ref(ops), res)
		splitWall += time.Duration(r.now() - start)
		realWall += doTime
		if err != nil {
			c.logf("traced job %d: %v", ops, err)
			failed++
		}
	}
	d := before.to(sampleProc())
	sl.counters = e.metrics.Snapshot().Counters
	if e.store != nil {
		sl.storeMB = float64(e.store.SizeBytes()) / 1e6
	}
	rec := newRecord(ops, failed)
	rec.Metrics = layerMetrics(r, ops, d, splitWall, realWall, sl)
	rec.spans = r
	return rec, nil
}

// splitJob replays one alloc job through the split pipeline in the order
// serve.ExecuteJob runs it, and checks the outcome against the runner's
// result.
func splitJob(r *recorder, op int, j serve.Job, ref *interp.Result, res serve.Result) error {
	end := r.beginOp(op)
	defer end()
	p, err := r.compile(j.Source, j.Allocator, j.K)
	if err != nil {
		return err
	}
	if p.String() != res.Code {
		return fmt.Errorf("split pipeline code differs from the runner's")
	}
	if j.Verify {
		vref, err := r.compile(j.Source, string(core.AllocNone), 0)
		if err != nil {
			return err
		}
		if err := r.verify(vref, p, j.K); err != nil || !res.Verified {
			return fmt.Errorf("verification differs: split %v, runner verified=%v", err, res.Verified)
		}
	}
	if !j.RunWanted() {
		return nil
	}
	got, err := r.run(p)
	if err != nil {
		return err
	}
	if err := r.diff(ref, got); err != nil {
		return err
	}
	if res.Total == nil || got.Total != *res.Total || !sameStats(got.PerFunc, res.PerFunc) {
		return fmt.Errorf("split pipeline interp.Stats differ from the runner's")
	}
	return nil
}

func sameStats(a map[string]*interp.Stats, b map[string]interp.Stats) bool {
	if len(a) != len(b) {
		return false
	}
	for name, s := range a {
		if t, ok := b[name]; !ok || *s != t {
			return false
		}
	}
	return true
}

func traceServeCompile(c runConfig) (*record, error) {
	jobs := compileStream(c.seed, compileStreamLen)
	e, err := newServeEnv(c.workDir, false)
	if err != nil {
		return nil, err
	}
	defer e.close()
	return traceServe(c, e, len(jobs), func(i int) serve.Job { return jobs[i] }, func(int) *interp.Result { return nil },
		func(_ int, o outcome) error { return compileJobCheck(o) })
}

func traceServeRepeat(c runConfig) (*record, error) {
	e, err := setupServeRepeat(c)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rc := &repeatChecker{env: e, fresh: map[string][32]byte{}}
	return traceServe(c, e.serveEnv, len(e.stream.Jobs), e.stream.job,
		func(i int) *interp.Result { return e.refs[e.stream.Jobs[i].Prog] }, rc.check)
}
