package serve_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

const goodSrc = `int main() { print(42); return 7; }`

func TestJobValidate(t *testing.T) {
	run := false
	tests := []struct {
		name string
		job  serve.Job
		ok   bool
	}{
		{"default alloc none", serve.Job{Source: goodSrc}, true},
		{"rap with k", serve.Job{Source: goodSrc, Allocator: "rap", K: 5}, true},
		{"compile only", serve.Job{Source: goodSrc, Allocator: "gra", K: 3, Run: &run}, true},
		{"compare defaults", serve.Job{Source: goodSrc, Mode: serve.ModeCompare}, true},
		{"compare explicit ks", serve.Job{Source: goodSrc, Mode: serve.ModeCompare, Ks: []int{3, 9}}, true},
		{"empty source", serve.Job{}, false},
		{"whitespace source", serve.Job{Source: "  \n\t"}, false},
		{"unknown allocator", serve.Job{Source: goodSrc, Allocator: "llvm", K: 5}, false},
		{"k too small", serve.Job{Source: goodSrc, Allocator: "rap", K: 1}, false},
		{"k too large", serve.Job{Source: goodSrc, Allocator: "rap", K: 1 << 20}, false},
		{"compare bad k", serve.Job{Source: goodSrc, Mode: serve.ModeCompare, Ks: []int{2}}, false},
		{"unknown mode", serve.Job{Source: goodSrc, Mode: "transmogrify"}, false},
		{"negative timeout", serve.Job{Source: goodSrc, TimeoutMS: -1}, false},
		{"negative max_cycles", serve.Job{Source: goodSrc, MaxCycles: -1}, false},
	}
	for _, tt := range tests {
		err := tt.job.Validate()
		if tt.ok && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tt.name, err)
		}
		if !tt.ok {
			if err == nil {
				t.Errorf("%s: Validate() = nil, want error", tt.name)
			} else if !errors.Is(err, serve.ErrBadJob) {
				t.Errorf("%s: Validate() = %v, not ErrBadJob", tt.name, err)
			}
		}
	}
	// The finer-grained core sentinels ride inside ErrBadJob so HTTP
	// callers can distinguish without string matching.
	err := (&serve.Job{Source: goodSrc, Allocator: "rap", K: 1}).Validate()
	if !errors.Is(err, core.ErrBadK) {
		t.Errorf("bad k error %v does not wrap core.ErrBadK", err)
	}
}

func TestCacheKey(t *testing.T) {
	base := serve.Job{Source: goodSrc, Allocator: "rap", K: 5}
	key := base.CacheKey()

	// Inputs that do not affect the result must not affect the key.
	same := base
	same.ID = "job-17"
	same.TimeoutMS = 1234
	if same.CacheKey() != key {
		t.Error("ID/TimeoutMS changed the cache key; identical work would never hit")
	}

	// Every result-determining field must change the key.
	run := false
	variants := map[string]serve.Job{
		"source":    {Source: goodSrc + " ", Allocator: "rap", K: 5},
		"allocator": {Source: goodSrc, Allocator: "gra", K: 5},
		"k":         {Source: goodSrc, Allocator: "rap", K: 7},
		"mode":      {Source: goodSrc, Mode: serve.ModeCompare},
		"run":       {Source: goodSrc, Allocator: "rap", K: 5, Run: &run},
		"verify":    {Source: goodSrc, Allocator: "rap", K: 5, Verify: true},
		"ablation":  {Source: goodSrc, Allocator: "rap", K: 5, RAPNoMotion: true},
		"cycles":    {Source: goodSrc, Allocator: "rap", K: 5, MaxCycles: 10},
	}
	seen := map[string]string{key: "base"}
	for name, j := range variants {
		k := j.CacheKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestCacheKeyDistinguishesAllocators: the allocator is part of the
// job's content address for every registered backend, so (say) an irc
// result can never be served from a gra job's cache or artifact slot, on
// one worker or across the fleet ring.
func TestCacheKeyDistinguishesAllocators(t *testing.T) {
	seen := map[string]core.Allocator{}
	for _, ac := range core.Allocators() {
		j := serve.Job{Source: goodSrc, Allocator: string(ac), K: 5}
		key := j.CacheKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("allocators %q and %q share a cache key", prev, ac)
		}
		seen[key] = ac
	}
	if len(seen) != len(core.Allocators()) {
		t.Errorf("%d distinct keys for %d allocators", len(seen), len(core.Allocators()))
	}
}

// TestVerifiedAllocParsesOnce: a verified alloc job lowers its source
// once and verifies the allocation against a clone of that program, so
// the front end's spans appear once per job.
func TestVerifiedAllocParsesOnce(t *testing.T) {
	m := obs.NewMetrics()
	tr := (*obs.Tracer)(nil).WithMetrics(m)
	job := serve.Job{Source: goodSrc, Allocator: "rap", K: 5, Verify: true}
	out, err := serve.ExecuteJob(context.Background(), job, serve.ExecOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatal("job not verified")
	}
	for _, span := range []string{"parse", "sem", "lower"} {
		if n := m.Snapshot().TimeHistsNS[span].Count; n != 1 {
			t.Errorf("%s spans = %d, want 1", span, n)
		}
	}
}
