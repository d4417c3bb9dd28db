package fuzz_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fuzz"
)

// grace is how long a test waits after a unit returns false before it
// counts a later start as a violation: Sweep lowers its bound right after
// the unit returns, so the wait only covers the scheduler.
const grace = 20 * time.Millisecond

// startLog records the indices units start, and when.
type startLog struct {
	mu     sync.Mutex
	starts []int64
	at     []time.Time
}

func (l *startLog) start(i int64) {
	l.mu.Lock()
	l.starts = append(l.starts, i)
	l.at = append(l.at, time.Now())
	l.mu.Unlock()
}

// startedAbove returns the indices above i that started after t.
func (l *startLog) startedAbove(i int64, t time.Time) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var late []int64
	for j, s := range l.starts {
		if s > i && l.at[j].After(t) {
			late = append(late, s)
		}
	}
	return late
}

// TestSweepOneWorkerInOrder: one worker runs the units in ascending order
// and runs none after the first that returns false.
func TestSweepOneWorkerInOrder(t *testing.T) {
	var log startLog
	got := fuzz.Sweep(20, 1, func(i int64) bool {
		log.start(i)
		return i != 5 && i != 9
	})
	if want := []int64{0, 1, 2, 3, 4, 5}; got != 5 || !reflect.DeepEqual(log.starts, want) {
		t.Fatalf("Sweep = %d, ran %v; want 5, %v", got, log.starts, want)
	}
}

// TestSweepLowestFalseWins: with four workers the lowest index that
// returns false is the one reported, whichever false returns first, and
// no index above it starts after it returns. The sweep spans 2^20 fast
// units, so it returns early only if the workers stop.
func TestSweepLowestFalseWins(t *testing.T) {
	const n = 1 << 20
	// A slow false at index 1 returns after an earlier false at index 6.
	t.Run("slow lower false", func(t *testing.T) {
		var log startLog
		highDone := make(chan struct{})
		var lowAt time.Time
		got := fuzz.Sweep(n, 4, func(i int64) bool {
			log.start(i)
			switch i {
			case 1:
				<-highDone
				time.Sleep(grace)
				lowAt = time.Now()
				return false
			case 6:
				close(highDone)
				return false
			}
			return true
		})
		if got != 1 {
			t.Fatalf("Sweep = %d, want 1", got)
		}
		if late := log.startedAbove(1, lowAt.Add(grace)); len(late) > 0 {
			t.Fatalf("indices %v started after index 1 returned false", late)
		}
	})
	// A slow false at index 3 returns after the lower false at index 1,
	// which waits for index 3 to start, so both are taken.
	t.Run("slow higher false", func(t *testing.T) {
		var log startLog
		highStarted, lowDone := make(chan struct{}), make(chan struct{})
		var lowAt time.Time
		got := fuzz.Sweep(n, 4, func(i int64) bool {
			log.start(i)
			switch i {
			case 1:
				<-highStarted
				lowAt = time.Now()
				close(lowDone)
				return false
			case 3:
				close(highStarted)
				<-lowDone
				time.Sleep(2 * grace)
				return false
			}
			return true
		})
		if got != 1 {
			t.Fatalf("Sweep = %d, want 1", got)
		}
		if late := log.startedAbove(1, lowAt.Add(grace)); len(late) > 0 {
			t.Fatalf("indices %v started after index 1 returned false", late)
		}
	})
}

// TestSweepEmpty: n = 0 runs nothing.
func TestSweepEmpty(t *testing.T) {
	var ran atomic.Int64
	if got := fuzz.Sweep(0, 4, func(int64) bool { ran.Add(1); return true }); got != 0 || ran.Load() != 0 {
		t.Fatalf("Sweep(0) = %d after %d units, want 0 after none", got, ran.Load())
	}
}

// TestSweepNonPositiveWorkers: a width of zero or less runs one worker,
// which runs every unit in order.
func TestSweepNonPositiveWorkers(t *testing.T) {
	for _, workers := range []int{0, -3} {
		var log startLog
		var inFlight atomic.Int64
		var overlapped atomic.Bool
		got := fuzz.Sweep(8, workers, func(i int64) bool {
			log.start(i)
			if inFlight.Add(1) > 1 {
				overlapped.Store(true)
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return true
		})
		if want := []int64{0, 1, 2, 3, 4, 5, 6, 7}; got != 8 || overlapped.Load() || !reflect.DeepEqual(log.starts, want) {
			t.Fatalf("workers %d: Sweep = %d, ran %v, units overlapped: %v; want 8, %v, one at a time",
				workers, got, log.starts, overlapped.Load(), want)
		}
	}
}
