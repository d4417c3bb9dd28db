package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/randprog"
	"repro/internal/serve"
)

// The serve workloads cycle allocators and register set sizes by program
// index, so every (allocator, k) pair appears once in every 12 programs.
var (
	allocCycle = []string{"gra", "rap", "irc"}
	kCycle     = []int{3, 5, 7, 9}
)

// subSeed derives an independent seed for item i of one of the
// benchmark's random streams (splitmix64 finalizer over seed, stream
// and index), so neighbouring seeds draw unrelated sequences.
func subSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// The serve-compile universe: compileUniverse seeded randprog programs,
// each compiled under a fixed allocator and k. A --seed permutes the
// universe, and the job stream repeats that permutation. Every run thus
// works through the same programs, in a seed's order: a full pass has
// the same content for every seed, and the quality guards, summed over
// the first pass, do not depend on the seed. The universe is four times
// the runner's 256-entry result cache, so a job has always been evicted
// by the time it comes round again and every job misses.
const (
	compileUniverse     = 1000
	compileUniverseSeed = 1994
)

// compileProgConfig sizes the serve-compile programs a little below
// randprog's fuzzing default: RAP's compile time on default-size programs
// has a tail of seconds, which would make a run's numbers depend on the
// few programs it happens to draw.
var compileProgConfig = randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 5, MaxDepth: 2, Floats: true}

//go:embed expected/serve-compile-rejected.txt
var compileRejectedList string

// compileRejected is the set of universe items whose allocation the
// verifier rejects at the seed commit; the stream leaves them out, so
// every job of a correct build succeeds.
var compileRejected = func() map[int]bool {
	out := map[int]bool{}
	for _, line := range strings.Split(compileRejectedList, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		u, err := strconv.Atoi(line)
		if err != nil {
			panic(fmt.Sprintf("expected/serve-compile-rejected.txt: %v", err))
		}
		out[u] = true
	}
	return out
}()

// compileItem is universe item u as a compile-and-verify job.
func compileItem(u int) serve.Job {
	run := false
	return serve.Job{
		Source:    randprog.Generate(subSeed(compileUniverseSeed, 1, u), compileProgConfig),
		Allocator: allocCycle[u%len(allocCycle)],
		K:         kCycle[u%len(kCycle)],
		Run:       &run,
		Verify:    true,
	}
}

// compilePass is the number of jobs in one pass over the universe.
func compilePass() int { return compileUniverse - len(compileRejected) }

// compileStream is the first n jobs of the serve-compile stream for
// seed: the universe's items, bar the rejected ones, in the seed's order,
// repeated.
func compileStream(seed int64, n int) []serve.Job {
	var pass []serve.Job
	for _, u := range rand.New(rand.NewSource(subSeed(seed, 1, 0))).Perm(compileUniverse) {
		if !compileRejected[u] {
			pass = append(pass, compileItem(u))
		}
	}
	jobs := make([]serve.Job, n)
	for i := range jobs {
		jobs[i] = pass[i%len(pass)]
	}
	return jobs
}

// repeatProgConfig sizes the serve-repeat programs smaller than the
// fuzzing default, so a cache miss costs a few ms of compilation next
// to the interpreter run, and a run reaches well past the 256-entry
// result cache.
var repeatProgConfig = randprog.Config{MaxFuncs: 3, MaxStmtsPerBlock: 4, MaxDepth: 2, Floats: true}

// The serve-repeat mix. The exact-repeat share stays well below 1/2, so
// the median job is a cache miss and not on the hit/miss boundary.
const (
	repeatShare  = 0.35
	nearDupShare = 0.15
	// zipfS skews repeat popularity toward the earliest programs.
	zipfS = 1.1
)

// The serve-repeat fresh programs come from a fixed universe: item u is a
// seeded randprog program under a fixed allocator and k. A stream takes
// the items in blocks of guardBlock, each block in the seed's order, so
// the first block's items are the first guardBlock fresh jobs of every
// stream. The quality guards sum over those jobs and do not depend on the
// seed.
const (
	repeatUniverseSeed = 1994
	guardBlock         = 600
)

// Kinds of serve-repeat job.
const (
	kindFresh   = "fresh"    // a universe item seen for the first time
	kindRepeat  = "repeat"   // an exact repeat of an earlier job
	kindNearDup = "near-dup" // an earlier RAP job's program with one function edited
)

// repeatJob is one serve-repeat job: program index, allocator and k.
// A fresh job also names its universe item (a repeat copies it), a
// near-duplicate the program it was edited from.
type repeatJob struct {
	Prog  int
	Alloc string
	K     int
	Kind  string
	Item  int
	Base  int
}

// repeatStream is the serve-repeat input: the distinct programs and the
// job sequence over them.
type repeatStream struct {
	Progs []string
	Jobs  []repeatJob
}

// newRepeatStream draws n serve-repeat jobs. A job is an exact repeat of
// an earlier fresh job (Zipf popularity by first appearance), a
// near-duplicate of an earlier RAP job (same allocator and k, one
// function edited, so the region memo can serve the rest), or the next
// fresh universe item.
func newRepeatStream(seed int64, n int) repeatStream {
	rng := rand.New(rand.NewSource(subSeed(seed, 2, 0)))
	var s repeatStream
	var fresh, rapFresh []int // job indices, in order of first appearance
	var block []int           // the current block's items, in the seed's order
	zipf := func(m int) int {
		if m == 1 {
			return 0
		}
		return int(rand.NewZipf(rng, zipfS, 1, uint64(m-1)).Uint64())
	}
	for len(s.Jobs) < n {
		u := rng.Float64()
		switch {
		case u < repeatShare && len(fresh) > 0:
			j := s.Jobs[fresh[zipf(len(fresh))]]
			j.Kind = kindRepeat
			s.Jobs = append(s.Jobs, j)
		case u < repeatShare+nearDupShare && len(rapFresh) > 0:
			base := s.Jobs[rapFresh[zipf(len(rapFresh))]]
			s.Progs = append(s.Progs, nearDuplicate(s.Progs[base.Prog], rng))
			s.Jobs = append(s.Jobs, repeatJob{Prog: len(s.Progs) - 1, Alloc: base.Alloc, K: base.K, Kind: kindNearDup, Base: base.Prog})
		default:
			if len(block) == 0 {
				for _, i := range rng.Perm(guardBlock) {
					block = append(block, len(fresh)+i)
				}
			}
			item := block[0]
			block = block[1:]
			s.Progs = append(s.Progs, randprog.Generate(subSeed(repeatUniverseSeed, 3, item), repeatProgConfig))
			j := repeatJob{Prog: len(s.Progs) - 1, Alloc: allocCycle[item%len(allocCycle)], K: kCycle[item%len(kCycle)], Kind: kindFresh, Item: item}
			fresh = append(fresh, len(s.Jobs))
			if j.Alloc == "rap" {
				rapFresh = append(rapFresh, len(s.Jobs))
			}
			s.Jobs = append(s.Jobs, j)
		}
	}
	return s
}

// guard reports whether job i is one of the first block's fresh jobs,
// which the quality guards sum over.
func (s repeatStream) guard(i int) bool {
	return s.Jobs[i].Kind == kindFresh && s.Jobs[i].Item < guardBlock
}

// guardEnd is one past the index of the stream's last guard job.
func (s repeatStream) guardEnd() int {
	end := 0
	for i := range s.Jobs {
		if s.guard(i) {
			end = i + 1
		}
	}
	return end
}

// job renders job i as a runnable serve job.
func (s repeatStream) job(i int) serve.Job {
	j := s.Jobs[i]
	return serve.Job{Source: s.Progs[j.Prog], Allocator: j.Alloc, K: j.K}
}

// nearDuplicate edits one randomly chosen function of a randprog program
// by prepending a statement to its body. The statement only updates the
// global gsum, so the program stays terminating and well defined.
func nearDuplicate(src string, rng *rand.Rand) string {
	lines := strings.Split(src, "\n")
	heads := functionHeads(lines)
	h := heads[rng.Intn(len(heads))]
	stmt := fmt.Sprintf("\tgsum = gsum + %d;", 1+rng.Intn(97))
	out := append(append(append([]string(nil), lines[:h+1]...), stmt), lines[h+1:]...)
	return strings.Join(out, "\n")
}

// functionHeads returns the indices of the lines that open a top-level
// function in randprog's output ("int name(...) {").
func functionHeads(lines []string) []int {
	var heads []int
	for i, l := range lines {
		if strings.HasPrefix(l, "int ") && strings.HasSuffix(l, ") {") {
			heads = append(heads, i)
		}
	}
	return heads
}
