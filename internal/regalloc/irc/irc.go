// Package irc implements IRC, a third register-allocation backend built
// on George–Appel iterated register coalescing: the five worklists
// (simplify / coalesce / freeze / potential-spill / select), per-node
// move lists, the conservative Briggs and George coalescing tests, and
// the rebuild-on-actual-spill outer loop.
//
// Unlike the window-convention GRA and RAP backends, IRC allocates
// against precolored physical registers and a real call ABI (ir/abi.go):
// the k machine registers appear in its graph as precolored nodes of
// infinite degree, every value live across a call interferes with the
// caller-save half of the file, return values are routed through RetReg
// by copies the coalescer then tries to eliminate, and callee-save
// registers the function writes are saved in the prologue and restored
// before every return. The interpreter runs the result on one shared
// register file with caller-save poisoning, so an ABI violation is an
// observable bug, not a convention detail.
package irc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/regalloc"
)

// Options configures the allocator.
type Options struct {
	// Trace receives phase timings ("irc.phase.*", one sample per phase
	// per rebuild round) and counters; nil (the default) is free.
	Trace *obs.Tracer
}

// afterBuild, when non-nil, runs after every rebuild round's build. Only
// TestReusedBuildMatchesFresh sets it, to check the reused allocator
// against a fresh one.
var afterBuild func(*allocator)

// allocators holds allocator states for reuse: each allocation takes
// one, refills its storage for its own function, and puts it back.
var allocators = sync.Pool{New: func() any { return &allocator{} }}

// Allocate rewrites f to use at most k physical registers under the call
// ABI, spilling to dedicated frame slots where colouring fails, and
// marks the function ABI. Spill cost follows Chaitin (refs/degree,
// infinite for spill temporaries) so the three backends differ in
// allocation strategy, not cost model.
func Allocate(f *ir.Function, k int, opts Options) error {
	if k < regalloc.MinRegisters {
		return fmt.Errorf("irc: k=%d below minimum %d", k, regalloc.MinRegisters)
	}
	span := opts.Trace.StartSpan("irc.color")
	defer span.End()
	a := allocators.Get().(*allocator)
	err := a.allocate(f, k, opts)
	// Only a normal return puts the allocator back: a panic could leave
	// its tables half filled.
	a.f, a.sp = nil, nil
	if a.g != nil {
		a.g.F = nil
	}
	allocators.Put(a)
	return err
}

// allocate runs the rebuild rounds on f, resetting a's CFG, liveness and
// worklist state in place every round.
func (a *allocator) allocate(f *ir.Function, k int, opts Options) error {
	sp := regalloc.NewSpiller(f)
	a.f, a.k, a.sp = f, k, sp
	a.pins = routeThroughABI(a.pins[:0], f)
	for iter := 0; iter < regalloc.MaxRounds; iter++ {
		stopBuild := opts.Trace.StartTimer("irc.phase.build")
		var err error
		a.g, err = cfg.Rebuild(a.g, f)
		if err != nil {
			stopBuild()
			return fmt.Errorf("irc: %s: %w", f.Name, err)
		}
		a.lv = dataflow.RecomputeLiveness(a.lv, a.g)
		err = a.build(a.g, a.lv)
		stopBuild()
		if err != nil {
			return fmt.Errorf("irc: %s: %w", f.Name, err)
		}
		if afterBuild != nil {
			afterBuild(a)
		}
		a.processWorklists(opts.Trace.Metrics())
		a.assignColors(opts.Trace)
		if len(a.spilled) == 0 {
			if err := a.rewrite(); err != nil {
				return fmt.Errorf("irc: %s: %w", f.Name, err)
			}
			regalloc.RemoveSelfCopies(f)
			insertCalleeSaves(f, k)
			f.Allocated = true
			f.K = k
			f.ABI = true
			if m := opts.Trace.Metrics(); m != nil {
				m.Add("irc.funcs_allocated", 1)
				m.Add("irc.moves_coalesced", a.nCoalesced)
				m.ObserveVal("irc.func.rounds", int64(iter)+1)
				m.ObserveVal("irc.func.nodes", int64(a.n-a.k))
			}
			return nil
		}
		spilledRegs := a.spillRegs()
		for _, r := range spilledRegs {
			if sp.IsTemp(r) {
				return fmt.Errorf("irc: %s: spill temporary %s selected for spilling (k too small)", f.Name, r)
			}
		}
		set := make(map[ir.Reg]bool, len(spilledRegs))
		for _, r := range spilledRegs {
			set[r] = true
		}
		if m := opts.Trace.Metrics(); m != nil {
			m.Add("irc.spill_rounds", 1)
			m.Add("irc.regs_spilled", int64(len(set)))
		}
		stopSpill := opts.Trace.StartTimer("irc.phase.spill")
		regalloc.SpillEverywhere(f, sp, set)
		stopSpill()
	}
	return fmt.Errorf("irc: %s: no colouring after %d iterations", f.Name, regalloc.MaxRounds)
}

// pin is a temporary routeThroughABI pinned to a machine register.
type pin struct {
	reg   ir.Reg
	color int
}

// routeThroughABI rewrites the virtual code so every value crossing a
// call boundary travels through a short-lived temporary pinned to
// RetReg: "call g() => vX" becomes "call g() => t; i2i t => vX" and
// "ret vY" becomes "i2i vY => t; ret t". The inserted copies are
// ordinary moves the coalescer eliminates whenever vX / vY can live in
// RetReg, which is exactly the iterated-coalescing payoff at call sites.
// The pins are appended to pins in ascending register order, the order
// NewReg hands the temporaries out in.
func routeThroughABI(pins []pin, f *ir.Function) []pin {
	edit := regalloc.NewEdit()
	for i, in := range f.Instrs {
		switch in.Op {
		case ir.OpCall:
			if in.Dst != ir.None {
				t := f.NewReg()
				pins = append(pins, pin{t, int(ir.RetReg)})
				edit.InsertAfter(i, &ir.Instr{Op: ir.OpI2I, Src1: t, Dst: in.Dst, Region: in.Region})
				in.Dst = t
			}
		case ir.OpRet:
			if in.Src1 != ir.None {
				t := f.NewReg()
				pins = append(pins, pin{t, int(ir.RetReg)})
				edit.InsertBefore(i, &ir.Instr{Op: ir.OpI2I, Src1: in.Src1, Dst: t, Region: in.Region})
				in.Src1 = t
			}
		}
	}
	edit.Apply(f)
	return pins
}

// Node states.
const (
	sPrecolored byte = iota
	sSimplify
	sFreeze
	sSpill
	sSpilled
	sCoalesced
	sStack
	sColored
)

// Move states.
const (
	mWorklist byte = iota
	mActive
	mCoalesced
	mConstrained
	mFrozen
)

// infiniteDegree keeps precolored nodes out of every degree test without
// overflow headroom problems.
const infiniteDegree = math.MaxInt32 / 2

type move struct{ u, v int }

// allocator is one function's worklist state, which build resets and
// refills at every rebuild round, reusing the previous round's storage;
// between allocations it waits in allocators, its storage kept for the
// next function. Node ids 0..k-1 are the machine registers r1..rk
// (precolored, infinite degree, never simplified or spilled); ids k..
// are the virtual registers in ascending order. Virtual registers pinned
// by routeThroughABI map directly onto the machine node of their color,
// which makes the precolored handling the textbook one — no separate
// "forbidden color" machinery.
type allocator struct {
	f    *ir.Function
	k    int
	n    int
	sp   *regalloc.Spiller
	pins []pin
	// g and lv are the function's CFG and liveness, recomputed in place
	// every round.
	g  *cfg.Graph
	lv *dataflow.Liveness

	regOf []ir.Reg // node id -> register (ir.None for ids < k)
	idOf  []int32  // register -> node id, -1 for a register the body does not reference

	adj     []*bitset.Set // adjacency over node ids (symmetric)
	adjList [][]int       // maintained for virtual nodes only
	degree  []int
	where   []byte
	alias   []int
	color   []int // 1..k once assigned; machine nodes preset
	cost    []float64

	moves     []move
	moveState []byte
	moveList  [][]int

	simplifyWL, freezeWL, spillWL []int
	worklistMoves                 []int
	selectStack                   []int
	coalescedNodes                []int
	spilled                       []int

	nCoalesced int64
	scratch    *bitset.Set

	// Storage build carves each round's rows, lists and tables from: the
	// bitset rows (adj, one row per pin, scratch), the adjacency and move
	// lists' backing arrays, the move lists' offsets, the reference
	// counts, and the machine-node marks the list order uses.
	rows     bitset.Batch
	adjFlat  []int
	moveFlat []int
	moveAt   []int
	refs     []int32
	marked   []bool
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// build resets a for the current body and fills it from the body's CFG
// and liveness in node-id space: the interference edges of the shared
// walk, caller-save clobber edges at every call, the adjacency lists,
// degrees, move lists, spill costs and the initial worklists.
func (a *allocator) build(g *cfg.Graph, lv *dataflow.Liveness) error {
	f, k := a.f, a.k

	// Node ids: every register the body references, in ascending order,
	// a pinned one taking its machine register's id.
	a.idOf = resize(a.idOf, int(f.NextReg))
	for r := range a.idOf {
		a.idOf[r] = -1
	}
	for i := range f.Instrs {
		for _, u := range g.Uses(i) {
			a.idOf[u] = 0
		}
		if d := g.Def(i); d != ir.None {
			a.idOf[d] = 0
		}
	}
	a.regOf = resize(a.regOf, k)
	for id := range a.regOf {
		a.regOf[id] = ir.None
	}
	p := 0
	for r, id := range a.idOf {
		if id < 0 {
			continue
		}
		for p < len(a.pins) && a.pins[p].reg < ir.Reg(r) {
			p++
		}
		if p < len(a.pins) && a.pins[p].reg == ir.Reg(r) {
			a.idOf[r] = int32(a.pins[p].color - 1)
			continue
		}
		a.idOf[r] = int32(len(a.regOf))
		a.regOf = append(a.regOf, ir.Reg(r))
	}
	n := len(a.regOf)
	a.n = n
	rows := a.rows.Carve(n+len(a.pins)+1, n)
	a.adj = rows[:n:n]
	// pinAdj[j] holds the virtual nodes adjacent to pin j, which places
	// the pin's machine node in their adjacency lists.
	pinAdj := rows[n : n+len(a.pins)]
	a.scratch = rows[n+len(a.pins)]
	a.degree = resize(a.degree, n)
	a.where = resize(a.where, n)
	a.alias = resize(a.alias, n)
	a.color = resize(a.color, n)
	a.cost = resize(a.cost, n)
	a.adjList = resize(a.adjList, n)
	a.moveList = resize(a.moveList, n)
	// Lists a larger earlier function left past n would keep arrays that
	// coalescing moved them to alive.
	clear(a.adjList[n:cap(a.adjList)])
	clear(a.moveList[n:cap(a.moveList)])
	clear(a.where)
	clear(a.color)
	clear(a.cost)
	for id := 0; id < n; id++ {
		a.alias[id] = id
		a.adjList[id] = nil
		if id < k {
			a.degree[id] = infiniteDegree
			a.color[id] = id + 1
		}
	}
	a.simplifyWL = a.simplifyWL[:0]
	a.freezeWL = a.freezeWL[:0]
	a.spillWL = a.spillWL[:0]
	a.selectStack = a.selectStack[:0]
	a.coalescedNodes = a.coalescedNodes[:0]
	a.spilled = a.spilled[:0]
	a.nCoalesced = 0

	var conflict error
	regalloc.ForEachInterference(g, lv, func(d, r ir.Reg) {
		u, v := int(a.idOf[d]), int(a.idOf[r])
		if u == v {
			// Only two registers pinned to one machine register share
			// an id.
			if conflict == nil {
				conflict = fmt.Errorf("conflicting values pinned to register r%d", u+1)
			}
			return
		}
		a.adj[u].Add(v)
		a.adj[v].Add(u)
		if u < k && v >= k {
			pinAdj[a.pinIndex(d)].Add(v)
		} else if v < k && u >= k {
			pinAdj[a.pinIndex(r)].Add(u)
		}
	})
	if conflict != nil {
		return conflict
	}
	// Caller-save clobbers: everything live across a call interferes with
	// the caller-save half of the machine file (the call's own result
	// temp excepted — it IS RetReg). Each block with a call is walked
	// backward from its live-out set.
	nCallerSave := ir.CallerSaveCount(k)
	var live *bitset.Set
	for b, blk := range g.Blocks {
		first := blk.End
		for i := blk.Start; i < blk.End; i++ {
			if f.Instrs[i].Op == ir.OpCall {
				first = i
				break
			}
		}
		if first == blk.End {
			continue
		}
		if live == nil {
			live = bitset.New(lv.NumRegs)
		}
		live.Copy(lv.BlockOut(b))
		for i := blk.End - 1; i >= first; i-- {
			if in := f.Instrs[i]; in.Op == ir.OpCall {
				live.ForEach(func(ri int) {
					if v := int(a.idOf[ri]); v >= k && ir.Reg(ri) != in.Dst {
						for c := 0; c < nCallerSave; c++ {
							a.adj[c].Add(v)
							a.adj[v].Add(c)
						}
					}
				})
			}
			lv.Step(live, i)
		}
	}

	// Adjacency lists, in the order simplification depends on: the
	// neighbours in ascending register order, a pinned register standing
	// for its machine node at its own position (once, at the first such
	// register), then the caller-save machine nodes the clobbers added,
	// ascending. The lists are carved from one array, each with no spare
	// capacity, so an edge coalescing adds moves its list elsewhere.
	total := 0
	for id := k; id < n; id++ {
		a.degree[id] = a.adj[id].Len()
		total += a.degree[id]
	}
	a.adjFlat = resize(a.adjFlat, total)
	a.marked = resize(a.marked, k)
	clear(a.marked)
	off := 0
	for u := k; u < n; u++ {
		list := a.adjFlat[off : off : off+a.degree[u]]
		off += a.degree[u]
		j := 0
		pinsBefore := func(r ir.Reg) {
			for ; j < len(a.pins) && a.pins[j].reg < r; j++ {
				if c := a.pins[j].color - 1; pinAdj[j].Has(u) && !a.marked[c] {
					a.marked[c] = true
					list = append(list, c)
				}
			}
		}
		a.adj[u].ForEach(func(v int) {
			if v >= k {
				pinsBefore(a.regOf[v])
				list = append(list, v)
			}
		})
		pinsBefore(f.NextReg)
		for c := 0; c < k; c++ {
			if a.adj[u].Has(c) && !a.marked[c] {
				list = append(list, c)
			}
		}
		for _, t := range list {
			if t < k {
				a.marked[t] = false
			}
		}
		a.adjList[u] = list
	}

	// Moves, and each node's moves in ascending order, carved from one
	// array like the adjacency lists.
	a.moves = a.moves[:0]
	for _, in := range f.Instrs {
		if in.Op != ir.OpI2I || in.Src1 == in.Dst || in.Src1 == ir.None || in.Dst == ir.None {
			continue
		}
		if u, v := int(a.idOf[in.Dst]), int(a.idOf[in.Src1]); u != v {
			a.moves = append(a.moves, move{u, v})
		}
	}
	a.moveAt = resize(a.moveAt, n+1)
	clear(a.moveAt)
	for _, m := range a.moves {
		a.moveAt[m.u+1]++
		a.moveAt[m.v+1]++
	}
	for id := 0; id < n; id++ {
		a.moveAt[id+1] += a.moveAt[id]
	}
	a.moveFlat = resize(a.moveFlat, 2*len(a.moves))
	for id := 0; id < n; id++ {
		a.moveList[id] = a.moveFlat[a.moveAt[id]:a.moveAt[id]:a.moveAt[id+1]]
	}
	a.moveState = resize(a.moveState, len(a.moves))
	a.worklistMoves = a.worklistMoves[:0]
	for mi, m := range a.moves {
		a.moveState[mi] = mWorklist
		a.worklistMoves = append(a.worklistMoves, mi)
		a.moveList[m.u] = append(a.moveList[m.u], mi)
		a.moveList[m.v] = append(a.moveList[m.v], mi)
	}

	// Chaitin spill costs, shared with the other backends.
	a.refs = f.RefCounts(a.refs)
	for id := k; id < n; id++ {
		r := a.regOf[id]
		if a.sp.IsTemp(r) {
			a.cost[id] = math.Inf(1)
			continue
		}
		d := a.degree[id]
		if d == 0 {
			d = 1
		}
		a.cost[id] = float64(a.refs[r]) / float64(d)
	}

	// Initial worklists.
	for id := k; id < n; id++ {
		switch {
		case a.degree[id] >= k:
			a.push(&a.spillWL, id, sSpill)
		case a.moveRelated(id):
			a.push(&a.freezeWL, id, sFreeze)
		default:
			a.push(&a.simplifyWL, id, sSimplify)
		}
	}
	return nil
}

// pinIndex returns the index of pinned register r in a.pins.
func (a *allocator) pinIndex(r ir.Reg) int {
	j, _ := slices.BinarySearchFunc(a.pins, r, func(p pin, r ir.Reg) int { return cmp.Compare(p.reg, r) })
	return j
}

// addEdge inserts an undirected edge, maintaining adjacency lists and
// degrees for virtual nodes (machine nodes keep infinite degree and need
// no list: they are never simplified, spilled, or George-tested).
func (a *allocator) addEdge(u, v int) {
	if u == v || a.adj[u].Has(v) {
		return
	}
	a.adj[u].Add(v)
	a.adj[v].Add(u)
	if u >= a.k {
		a.adjList[u] = append(a.adjList[u], v)
		a.degree[u]++
	}
	if v >= a.k {
		a.adjList[v] = append(a.adjList[v], u)
		a.degree[v]++
	}
}

func (a *allocator) push(wl *[]int, id int, state byte) {
	a.where[id] = state
	*wl = append(*wl, id)
}

// pop removes the next node still in the expected state (worklist
// membership is lazy: a node that changed state since being pushed is
// skipped).
func (a *allocator) pop(wl *[]int, state byte) (int, bool) {
	for len(*wl) > 0 {
		id := (*wl)[len(*wl)-1]
		*wl = (*wl)[:len(*wl)-1]
		if a.where[id] == state {
			return id, true
		}
	}
	return -1, false
}

func (a *allocator) getAlias(id int) int {
	for a.where[id] == sCoalesced {
		id = a.alias[id]
	}
	return id
}

// forAdjacent visits the CURRENT neighbours of id: the adjacency list
// minus stacked and coalesced nodes (Appel's Adjacent()).
func (a *allocator) forAdjacent(id int, f func(int)) {
	for _, t := range a.adjList[id] {
		if w := a.where[t]; w != sStack && w != sCoalesced {
			f(t)
		}
	}
}

func (a *allocator) nodeMoves(id int) []int {
	var out []int
	for _, mi := range a.moveList[id] {
		if s := a.moveState[mi]; s == mActive || s == mWorklist {
			out = append(out, mi)
		}
	}
	return out
}

func (a *allocator) moveRelated(id int) bool {
	for _, mi := range a.moveList[id] {
		if s := a.moveState[mi]; s == mActive || s == mWorklist {
			return true
		}
	}
	return false
}

func (a *allocator) enableMoves(id int) {
	for _, mi := range a.moveList[id] {
		if a.moveState[mi] == mActive {
			a.moveState[mi] = mWorklist
			a.worklistMoves = append(a.worklistMoves, mi)
		}
	}
}

func (a *allocator) decrementDegree(id int) {
	if id < a.k {
		return
	}
	d := a.degree[id]
	a.degree[id] = d - 1
	if d != a.k {
		return
	}
	// The node just became insignificant: re-enable its moves (and its
	// neighbours'), and move it off the spill worklist.
	a.enableMoves(id)
	a.forAdjacent(id, func(t int) { a.enableMoves(t) })
	if a.where[id] != sSpill {
		return
	}
	if a.moveRelated(id) {
		a.push(&a.freezeWL, id, sFreeze)
	} else {
		a.push(&a.simplifyWL, id, sSimplify)
	}
}

// worklistPhases names the steps of the main loop, in processWorklists'
// priority order, as their timers.
var worklistPhases = [...]string{"irc.phase.simplify", "irc.phase.coalesce", "irc.phase.freeze", "irc.phase.spillselect"}

// processWorklists runs the George–Appel main loop to exhaustion. Under
// metrics it sums each phase's time over the round and records one
// sample per phase that ran.
func (a *allocator) processWorklists(m *obs.Metrics) {
	var (
		spent [len(worklistPhases)]time.Duration
		ran   [len(worklistPhases)]bool
		start time.Time
	)
	for {
		if m != nil {
			start = time.Now()
		}
		var phase int
		switch {
		case len(a.simplifyWL) > 0:
			a.simplify()
		case len(a.worklistMoves) > 0:
			phase = 1
			a.coalesce()
		case len(a.freezeWL) > 0:
			phase = 2
			a.freeze()
		case len(a.spillWL) > 0:
			phase = 3
			a.selectSpill()
		default:
			for p, name := range worklistPhases {
				if ran[p] {
					m.ObserveDur(name, spent[p])
				}
			}
			return
		}
		if m != nil {
			spent[phase] += time.Since(start)
			ran[phase] = true
		}
	}
}

func (a *allocator) simplify() {
	id, ok := a.pop(&a.simplifyWL, sSimplify)
	if !ok {
		return
	}
	a.where[id] = sStack
	a.selectStack = append(a.selectStack, id)
	a.forAdjacent(id, func(t int) { a.decrementDegree(t) })
}

func (a *allocator) coalesce() {
	var mi int
	for {
		if len(a.worklistMoves) == 0 {
			return
		}
		mi = a.worklistMoves[len(a.worklistMoves)-1]
		a.worklistMoves = a.worklistMoves[:len(a.worklistMoves)-1]
		if a.moveState[mi] == mWorklist {
			break
		}
	}
	m := a.moves[mi]
	x, y := a.getAlias(m.u), a.getAlias(m.v)
	u, v := x, y
	if a.where[y] == sPrecolored {
		u, v = y, x
	}
	switch {
	case u == v:
		a.moveState[mi] = mCoalesced
		a.nCoalesced++
		a.addWorkList(u)
	case a.where[v] == sPrecolored || a.adj[u].Has(v):
		a.moveState[mi] = mConstrained
		a.addWorkList(u)
		a.addWorkList(v)
	case (a.where[u] == sPrecolored && a.george(v, u)) ||
		(a.where[u] != sPrecolored && a.briggs(u, v)):
		a.moveState[mi] = mCoalesced
		a.nCoalesced++
		a.combine(u, v)
		a.addWorkList(a.getAlias(u))
	default:
		a.moveState[mi] = mActive
	}
}

// addWorkList moves a node that just stopped being move-related (or
// never was) onto the simplify worklist if it is insignificant.
func (a *allocator) addWorkList(id int) {
	if id >= a.k && a.where[id] == sFreeze && !a.moveRelated(id) && a.degree[id] < a.k {
		a.push(&a.simplifyWL, id, sSimplify)
	}
}

// george is the George test for coalescing virtual node v into
// precolored node u: safe if every current neighbour of v is
// insignificant, precolored, or already interferes with u.
func (a *allocator) george(v, u int) bool {
	ok := true
	a.forAdjacent(v, func(t int) {
		if !ok {
			return
		}
		if a.degree[t] < a.k || a.where[t] == sPrecolored || a.adj[t].Has(u) {
			return
		}
		ok = false
	})
	return ok
}

// briggs is the conservative Briggs test for two virtual nodes: the
// combined node is safe if its neighbourhood has fewer than k
// significant-degree members.
func (a *allocator) briggs(u, v int) bool {
	sc := a.scratch
	sc.Clear()
	significant := 0
	count := func(t int) {
		if sc.Has(t) {
			return
		}
		sc.Add(t)
		// A neighbour adjacent to both u and v loses one edge in the
		// combine, so its post-combine degree is what the test needs.
		d := a.degree[t]
		if a.adj[t].Has(u) && a.adj[t].Has(v) {
			d--
		}
		if d >= a.k {
			significant++
		}
	}
	a.forAdjacent(u, count)
	a.forAdjacent(v, count)
	return significant < a.k
}

// combine folds v into u after a successful coalescing test.
func (a *allocator) combine(u, v int) {
	a.where[v] = sCoalesced
	a.coalescedNodes = append(a.coalescedNodes, v)
	a.alias[v] = u
	a.moveList[u] = append(a.moveList[u], a.moveList[v]...)
	a.enableMoves(v)
	a.forAdjacent(v, func(t int) {
		a.addEdge(t, u)
		a.decrementDegree(t)
	})
	if u >= a.k && a.degree[u] >= a.k && a.where[u] == sFreeze {
		a.push(&a.spillWL, u, sSpill)
	}
}

func (a *allocator) freeze() {
	id, ok := a.pop(&a.freezeWL, sFreeze)
	if !ok {
		return
	}
	a.push(&a.simplifyWL, id, sSimplify)
	a.freezeMoves(id)
}

// freezeMoves gives up on coalescing every move involving u, unblocking
// the partners for simplification.
func (a *allocator) freezeMoves(u int) {
	au := a.getAlias(u)
	for _, mi := range a.nodeMoves(u) {
		m := a.moves[mi]
		v := a.getAlias(m.v)
		if v == au {
			v = a.getAlias(m.u)
		}
		a.moveState[mi] = mFrozen
		if v >= a.k && a.where[v] == sFreeze && !a.moveRelated(v) && a.degree[v] < a.k {
			a.push(&a.simplifyWL, v, sSimplify)
		}
	}
}

// selectSpill picks the cheapest potential-spill node (Chaitin cost, ties
// broken toward the lower register for determinism) and optimistically
// pushes it like a simplify candidate.
func (a *allocator) selectSpill() {
	live := a.spillWL[:0]
	best := -1
	for _, id := range a.spillWL {
		if a.where[id] != sSpill {
			continue
		}
		live = append(live, id)
		if best < 0 || a.cost[id] < a.cost[best] || (a.cost[id] == a.cost[best] && id < best) {
			best = id
		}
	}
	a.spillWL = live
	if best < 0 {
		return
	}
	for i, id := range a.spillWL {
		if id == best {
			a.spillWL = append(a.spillWL[:i], a.spillWL[i+1:]...)
			break
		}
	}
	a.push(&a.simplifyWL, best, sSimplify)
	// Simplify will stack it; freeze its moves now (Appel): a node picked
	// for potential spilling no longer bargains for coalescing.
	a.freezeMoves(best)
}

// assignColors pops the select stack, giving each node the lowest colour
// not taken by a colored/precolored neighbour; nodes with no colour left
// become actual spills. Coalesced nodes inherit their representative.
func (a *allocator) assignColors(tr *obs.Tracer) {
	stop := tr.StartTimer("irc.phase.select")
	defer stop()
	avail := make([]bool, a.k+1)
	for i := len(a.selectStack) - 1; i >= 0; i-- {
		id := a.selectStack[i]
		for c := 1; c <= a.k; c++ {
			avail[c] = true
		}
		for _, t := range a.adjList[id] {
			at := a.getAlias(t)
			if w := a.where[at]; w == sColored || w == sPrecolored {
				avail[a.color[at]] = false
			}
		}
		picked := 0
		for c := 1; c <= a.k; c++ {
			if avail[c] {
				picked = c
				break
			}
		}
		if picked == 0 {
			a.where[id] = sSpilled
			a.spilled = append(a.spilled, id)
			continue
		}
		a.where[id] = sColored
		a.color[id] = picked
	}
	a.selectStack = a.selectStack[:0]
	for _, v := range a.coalescedNodes {
		rep := a.getAlias(v)
		if a.where[rep] != sSpilled {
			a.color[v] = a.color[rep]
		}
	}
}

// spillRegs lists the registers whose (alias-resolved) node was an
// actual spill, in deterministic order.
func (a *allocator) spillRegs() []ir.Reg {
	var out []ir.Reg
	for id := a.k; id < a.n; id++ {
		if a.where[a.getAlias(id)] == sSpilled {
			out = append(out, a.regOf[id])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rewrite replaces every register with its node's colour.
func (a *allocator) rewrite() error {
	var missing []ir.Reg
	for _, in := range a.f.Instrs {
		in.RewriteRegs(func(r ir.Reg) ir.Reg {
			if int(r) >= len(a.idOf) || a.idOf[r] < 0 {
				missing = append(missing, r)
				return r
			}
			c := a.color[a.getAlias(int(a.idOf[r]))]
			if c == 0 {
				missing = append(missing, r)
				return r
			}
			return ir.Reg(c)
		})
	}
	if len(missing) > 0 {
		return fmt.Errorf("registers %v have no colour", missing)
	}
	return nil
}

// insertCalleeSaves adds the ABI prologue/epilogue: every callee-save
// register the (now physical) body writes is stored to a fresh spill
// slot before the first instruction and reloaded immediately before each
// return. RetReg is caller-save, so restores can never clobber the
// return value.
func insertCalleeSaves(f *ir.Function, k int) {
	if len(f.Instrs) == 0 {
		return
	}
	written := map[ir.Reg]bool{}
	for _, in := range f.Instrs {
		if d := in.Def(); d != ir.None && ir.IsCalleeSave(d, k) {
			written[d] = true
		}
	}
	if len(written) == 0 {
		return
	}
	saved := make([]ir.Reg, 0, len(written))
	for r := range written {
		saved = append(saved, r)
	}
	sort.Slice(saved, func(i, j int) bool { return saved[i] < saved[j] })
	slots := make(map[ir.Reg]int64, len(saved))
	for _, r := range saved {
		slots[r] = int64(f.SpillSlots)
		f.SpillSlots++
	}
	edit := regalloc.NewEdit()
	entryRegion := f.Instrs[0].Region
	for _, r := range saved {
		edit.InsertBefore(0, &ir.Instr{Op: ir.OpStSpill, Src1: r, Imm: slots[r], Region: entryRegion})
	}
	for i, in := range f.Instrs {
		if in.Op != ir.OpRet {
			continue
		}
		for _, r := range saved {
			edit.InsertBefore(i, &ir.Instr{Op: ir.OpLdSpill, Dst: r, Imm: slots[r], Region: in.Region})
		}
	}
	edit.Apply(f)
}
