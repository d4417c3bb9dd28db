package obs

import (
	"math"
	"math/bits"
)

// histBuckets is the fixed bucket count every Histogram uses. Bucket b
// holds samples v with bits.Len64(v) == b, i.e. the half-open value
// range [2^(b-1), 2^b); bucket 0 holds v <= 0. Fixed log2-scaled bucket
// boundaries make histograms deterministic: a histogram is a sum of
// per-sample bucket increments, like a counter, so two runs observing
// the same multiset of values produce byte-identical snapshots whatever
// the observation order, and workers sharing one registry record the
// same histogram a sequential run does.
const histBuckets = 64

// Histogram accumulates int64 samples into fixed log2 buckets. The
// zero value is ready to use; it is NOT safe for concurrent use on its
// own (the Metrics registry serializes access under its mutex).
type Histogram struct {
	count   int64
	sum     int64
	buckets [histBuckets]int64
}

// bucketOf maps a sample to its bucket index: 0 for non-positive
// values, otherwise the sample's bit length (1..63).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper is the inclusive upper bound of bucket b's value range
// (0 for bucket 0, 2^b - 1 otherwise; the top bucket saturates at
// MaxInt64).
func bucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << b) - 1
}

// bucketLower is the inclusive lower bound of bucket b's value range.
func bucketLower(b int) int64 {
	if b <= 0 {
		return 0
	}
	return int64(1) << (b - 1)
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// snapshot copies the histogram into its serializable form, trimming
// trailing empty buckets so snapshots stay compact.
func (h *Histogram) snapshot() HistSnapshot {
	last := -1
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i] != 0 {
			last = i
			break
		}
	}
	s := HistSnapshot{Count: h.count, Sum: h.sum}
	if last >= 0 {
		s.Buckets = append([]int64(nil), h.buckets[:last+1]...)
	}
	return s
}

// HistSnapshot is the stable serialized form of a Histogram: total
// sample count, sum, and per-bucket counts (trailing zero buckets
// trimmed). Bucket i covers values [2^(i-1), 2^i); bucket 0 covers
// v <= 0. Snapshots of equal histograms are deeply equal, so the JSON
// form is byte-stable.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Check validates the snapshot's internal consistency: bucket counts
// must sum to Count and no bucket may be negative. It is the guard the
// mutation tests lean on — dropping or corrupting a bucket breaks the
// invariant.
func (s HistSnapshot) Check() bool {
	var total int64
	for _, c := range s.Buckets {
		if c < 0 {
			return false
		}
		total += c
	}
	return total == s.Count
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation inside the bucket holding the target rank. With
// log-scaled buckets the estimate is exact to within one octave —
// plenty for p50/p99 latency attribution. Returns 0 for an empty
// snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum int64
	for b, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			lo, hi := bucketLower(b), bucketUpper(b)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return bucketUpper(len(s.Buckets) - 1)
}

// P50, P90 and P99 are the quantile shorthands the CLIs print.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }

// P90 estimates the 90th percentile.
func (s HistSnapshot) P90() int64 { return s.Quantile(0.90) }

// P99 estimates the 99th percentile.
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }
