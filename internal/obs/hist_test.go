package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func randomHist(rng *rand.Rand) HistSnapshot {
	h := &Histogram{}
	n := rng.Intn(200)
	for i := 0; i < n; i++ {
		// Mix magnitudes so all bucket ranges get exercised, including
		// the v<=0 bucket.
		v := rng.Int63n(1 << uint(1+rng.Intn(40)))
		if rng.Intn(10) == 0 {
			v = -v
		}
		h.Observe(v)
	}
	return h.snapshot()
}

// TestHistSharedRegistryMatchesSequential is the property the shared
// registry's determinism rests on: samples observed from several
// goroutines into one registry, in whatever interleaving, yield the
// snapshot one goroutine observing them in order does.
func TestHistSharedRegistryMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	seq, shared := NewMetrics(), NewMetrics()
	for _, v := range vals {
		seq.ObserveVal("h", v)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(vals) - 1 - w; i >= 0; i -= 4 {
				shared.ObserveVal("h", vals[i])
			}
		}()
	}
	wg.Wait()
	got, want := shared.Snapshot().Hists["h"], seq.Snapshot().Hists["h"]
	if !reflect.DeepEqual(got, want) || !got.Check() {
		t.Fatalf("shared registry != sequential:\nshared %+v\nwant   %+v", got, want)
	}
}

// TestHistDroppedBucketCaught is the mutation test: corrupting a
// snapshot by dropping (or zeroing) a bucket must trip Check.
func TestHistDroppedBucketCaught(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{1, 3, 9, 100, 5000, 1 << 20} {
		h.Observe(v)
	}
	good := h.snapshot()
	if !good.Check() {
		t.Fatalf("honest snapshot fails Check: %+v", good)
	}
	for i := range good.Buckets {
		if good.Buckets[i] == 0 {
			continue
		}
		mut := HistSnapshot{Count: good.Count, Sum: good.Sum, Buckets: append([]int64(nil), good.Buckets...)}
		mut.Buckets[i] = 0 // drop the bucket's samples
		if mut.Check() {
			t.Errorf("dropping bucket %d went undetected: %+v", i, mut)
		}
	}
	neg := HistSnapshot{Count: 0, Sum: 0, Buckets: []int64{1, -1}}
	if neg.Check() {
		t.Error("negative bucket count went undetected")
	}
}

func TestHistQuantiles(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty quantile = %d, want 0", empty.Quantile(0.5))
	}

	// 100 samples of exactly 1000: every quantile lands inside bucket
	// bits.Len64(1000)=10, range [512, 1023].
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	s := h.snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		if got < 512 || got > 1023 {
			t.Errorf("q%.2f = %d, want within [512,1023]", q, got)
		}
	}

	// 90 small + 10 large samples: p50 must sit in the small bucket,
	// p99 in the large one.
	h2 := &Histogram{}
	for i := 0; i < 90; i++ {
		h2.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1 << 20)
	}
	s2 := h2.snapshot()
	if p50 := s2.P50(); p50 < 8 || p50 > 15 {
		t.Errorf("p50 = %d, want in [8,15]", p50)
	}
	if p99 := s2.P99(); p99 < 1<<19 {
		t.Errorf("p99 = %d, want >= %d", p99, 1<<19)
	}
	if s2.P90() > s2.P99() {
		t.Errorf("p90 %d > p99 %d", s2.P90(), s2.P99())
	}
}

func TestBucketBoundaries(t *testing.T) {
	cases := map[int64]int{-5: 0, 0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11, math.MaxInt64: 63}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	for b := 1; b < 63; b++ {
		lo, hi := bucketLower(b), bucketUpper(b)
		if bucketOf(lo) != b || bucketOf(hi) != b {
			t.Errorf("bucket %d bounds [%d,%d] do not map back to %d", b, lo, hi, b)
		}
		if bucketOf(hi+1) != b+1 {
			t.Errorf("bucket %d upper+1 maps to %d, want %d", b, bucketOf(hi+1), b+1)
		}
	}
}

// TestSnapshotV2Sections: a gauge holds the last value set, value
// histograms count every sample, and Deterministic strips exactly the
// wall-clock sections.
func TestSnapshotV2Sections(t *testing.T) {
	a := NewMetrics()
	a.SetGauge("serve.inflight", 5)
	a.SetGauge("serve.inflight", 3)
	a.SetGauge("serve.workers", 2)
	a.ObserveVal("rap.region.iters", 1)
	a.ObserveVal("rap.region.iters", 4)
	a.ObserveDur("rap.phase.cost", 1000)

	s := a.Snapshot()
	if s.Schema != SnapshotSchema {
		t.Errorf("schema = %q", s.Schema)
	}
	if s.Gauges["serve.inflight"] != 3 || s.Gauges["serve.workers"] != 2 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	hs := s.Hists["rap.region.iters"]
	if hs.Count != 2 || hs.Sum != 5 || !hs.Check() {
		t.Errorf("value hist = %+v", hs)
	}
	if _, ok := s.TimeHistsNS["rap.phase.cost"]; !ok {
		t.Error("ObserveDur did not create a duration histogram")
	}
	if s.TimingsNS["rap.phase.cost"] != 1000 {
		t.Errorf("ObserveDur did not accumulate the cumulative timing: %v", s.TimingsNS)
	}

	det := s.Deterministic()
	if det.TimingsNS != nil || det.TimeHistsNS != nil {
		t.Error("Deterministic kept wall-clock sections")
	}
	if !reflect.DeepEqual(det.Hists, s.Hists) || !reflect.DeepEqual(det.Gauges, s.Gauges) {
		t.Error("Deterministic dropped deterministic sections")
	}

	// The deterministic JSON form is byte-stable.
	var b1, b2 bytes.Buffer
	det.WriteJSON(&b1)
	det.WriteJSON(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("WriteJSON not byte-stable")
	}
}

// TestHistSnapshotJSONRoundTrip: the wire form survives encode/decode,
// so /metrics JSON consumers can re-check and re-quantile snapshots.
func TestHistSnapshotJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomHist(rng)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got HistSnapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed snapshot:\nsent %+v\ngot  %+v", s, got)
	}
}
