package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process counters the
// end-to-end metrics are deltas of.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system time of the whole process
	alloc   uint64        // runtime.MemStats.TotalAlloc
	numGC   uint32
	pauseNS uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:    time.Now(),
		cpu:     processCPU(),
		alloc:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// delta is the work a process did between two samples.
type delta struct {
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
	gc      int
	pauseMS float64
}

func (a procSample) to(b procSample) delta {
	return delta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.alloc-a.alloc) / 1e6,
		gc:      int(b.numGC - a.numGC),
		pauseMS: float64(b.pauseNS-a.pauseNS) / 1e6,
	}
}

// slice is one stretch of a measurement window: a Table 1 pass, or a
// fixed length of a serve run.
type slice struct {
	wall, cpu time.Duration
	ops       int
	peakRSSMB float64 // highest RSS sampled during the slice
}

// rssEvery is how often the sampler reads the process's RSS.
const rssEvery = 20 * time.Millisecond

// sampler cuts a measurement window into slices and samples the RSS
// within each. The end-to-end rates are medians over slices, so a few
// seconds in which the host runs the process slowly move them little.
type sampler struct {
	ops   func() int // ops completed so far
	mu    sync.Mutex
	start procSample
	ops0  int
	rss   float64
	out   []slice
	quit  chan struct{}
	done  chan struct{}
}

// startSampler starts a window. With every > 0 it cuts a slice every
// `every`; otherwise only cut does.
func startSampler(ops func() int, every time.Duration) *sampler {
	s := &sampler{ops: ops, start: sampleProc(), ops0: ops(), rss: rssMB(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
			s.mu.Lock()
			s.rss = max(s.rss, rssMB())
			due := every > 0 && time.Since(s.start.wall) >= every
			s.mu.Unlock()
			if due {
				s.cut()
			}
		}
	}()
	return s
}

// cut closes the current slice and opens the next.
func (s *sampler) cut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now, n := sampleProc(), s.ops()
	rss := max(s.rss, rssMB())
	d := s.start.to(now)
	s.out = append(s.out, slice{wall: d.wall, cpu: d.cpu, ops: n - s.ops0, peakRSSMB: rss})
	s.start, s.ops0, s.rss = now, n, rssMB()
}

// stop ends the window and returns its slices. A trailing slice shorter
// than half of minWall is dropped.
func (s *sampler) stop(minWall time.Duration) []slice {
	close(s.quit)
	<-s.done
	s.mu.Lock()
	tail := time.Since(s.start.wall)
	s.mu.Unlock()
	if tail >= minWall/2 && s.ops() > s.ops0 {
		s.cut()
	}
	return s.out
}

// rssMB is the process's current resident set size in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// provenance names the host and inputs a result was measured on.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Ops        int    `json:"ops"`
}

func newProvenance(workload string, seed int64, seconds int, trace bool, ops int) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Ops:        ops,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
