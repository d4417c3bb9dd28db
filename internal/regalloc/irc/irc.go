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
	"fmt"
	"math"
	"sort"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/regalloc"
)

// Options configures the allocator.
type Options struct {
	// MaxIterations bounds the build/colour/spill loop (0 means 100).
	MaxIterations int
	// Trace receives phase timings ("irc.phase.*") and counters; nil (the
	// default) is free.
	Trace *obs.Tracer
}

// Allocate rewrites f to use at most k physical registers under the call
// ABI, spilling to dedicated frame slots where colouring fails, and
// marks the function ABI. Spill cost follows Chaitin (refs/degree,
// infinite for spill temporaries) so the three backends differ in
// allocation strategy, not cost model.
func Allocate(f *ir.Function, k int, opts Options) error {
	if k < regalloc.MinRegisters {
		return fmt.Errorf("irc: k=%d below minimum %d", k, regalloc.MinRegisters)
	}
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = 100
	}
	span := opts.Trace.StartSpan("irc.color")
	defer span.End()
	sp := regalloc.NewSpiller(f)
	pinned := routeThroughABI(f)
	// One CFG and liveness, recomputed in place by every rebuild round.
	var (
		g  *cfg.Graph
		lv *dataflow.Liveness
	)
	for iter := 0; iter < maxIter; iter++ {
		stopBuild := opts.Trace.StartTimer("irc.phase.build")
		var err error
		g, err = cfg.Rebuild(g, f)
		if err != nil {
			stopBuild()
			return fmt.Errorf("irc: %s: %w", f.Name, err)
		}
		lv = dataflow.RecomputeLiveness(lv, g)
		a, err := build(f, k, sp, pinned, g, lv)
		stopBuild()
		if err != nil {
			return fmt.Errorf("irc: %s: %w", f.Name, err)
		}
		a.processWorklists(opts.Trace)
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
	return fmt.Errorf("irc: %s: no colouring after %d iterations", f.Name, maxIter)
}

// routeThroughABI rewrites the virtual code so every value crossing a
// call boundary travels through a short-lived temporary pinned to
// RetReg: "call g() => vX" becomes "call g() => t; i2i t => vX" and
// "ret vY" becomes "i2i vY => t; ret t". The inserted copies are
// ordinary moves the coalescer eliminates whenever vX / vY can live in
// RetReg, which is exactly the iterated-coalescing payoff at call sites.
func routeThroughABI(f *ir.Function) map[ir.Reg]int {
	pinned := map[ir.Reg]int{}
	edit := regalloc.NewEdit()
	for i, in := range f.Instrs {
		switch in.Op {
		case ir.OpCall:
			if in.Dst != ir.None {
				t := f.NewReg()
				pinned[t] = int(ir.RetReg)
				edit.InsertAfter(i, &ir.Instr{Op: ir.OpI2I, Src1: t, Dst: in.Dst, Region: in.Region})
				in.Dst = t
			}
		case ir.OpRet:
			if in.Src1 != ir.None {
				t := f.NewReg()
				pinned[t] = int(ir.RetReg)
				edit.InsertBefore(i, &ir.Instr{Op: ir.OpI2I, Src1: in.Src1, Dst: t, Region: in.Region})
				in.Src1 = t
			}
		}
	}
	edit.Apply(f)
	return pinned
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

// allocator is one round's worklist state. Node ids 0..k-1 are the
// machine registers r1..rk (precolored, infinite degree, never
// simplified or spilled); ids k.. are the virtual registers in sorted
// order. Virtual registers pinned by routeThroughABI map directly onto
// the machine node of their color, which makes the precolored handling
// the textbook one — no separate "forbidden color" machinery.
type allocator struct {
	f  *ir.Function
	k  int
	n  int
	sp *regalloc.Spiller

	regOf []ir.Reg       // node id -> register (ir.None for ids < k)
	idOf  map[ir.Reg]int // register -> node id

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
}

// build constructs the interference graph for the current body from its
// CFG and liveness: the classic interference edges (remapped into
// machine/node id space), caller-save clobber edges at every call, move
// lists, and the initial worklists.
func build(f *ir.Function, k int, sp *regalloc.Spiller, pinned map[ir.Reg]int, g *cfg.Graph, lv *dataflow.Liveness) (*allocator, error) {
	graph := regalloc.BuildInterference(f, g, lv)

	a := &allocator{f: f, k: k, sp: sp, idOf: map[ir.Reg]int{}}
	a.regOf = make([]ir.Reg, k, k+graph.NumNodes())
	for id := 0; id < k; id++ {
		a.regOf[id] = ir.None
	}
	nodes := graph.Nodes() // sorted by register, so ids are deterministic
	for _, nd := range nodes {
		r := nd.Key()
		if c, ok := pinned[r]; ok {
			a.idOf[r] = c - 1
			continue
		}
		a.idOf[r] = len(a.regOf)
		a.regOf = append(a.regOf, r)
	}
	a.n = len(a.regOf)
	a.adj = bitset.NewBatch(a.n, a.n)
	a.adjList = make([][]int, a.n)
	a.degree = make([]int, a.n)
	a.where = make([]byte, a.n)
	a.alias = make([]int, a.n)
	a.color = make([]int, a.n)
	a.cost = make([]float64, a.n)
	a.moveList = make([][]int, a.n)
	a.scratch = bitset.New(a.n)
	for id := 0; id < a.n; id++ {
		a.alias[id] = id
		if id < k {
			a.where[id] = sPrecolored
			a.degree[id] = infiniteDegree
			a.color[id] = id + 1
		}
	}

	var conflict error
	addInit := func(u, v int) {
		if u == v {
			if u < a.k && conflict == nil {
				conflict = fmt.Errorf("conflicting values pinned to register r%d", u+1)
			}
			return
		}
		a.addEdge(u, v)
	}
	for _, nd := range nodes {
		u := a.idOf[nd.Key()]
		for _, ad := range nd.AdjNodes() {
			addInit(u, a.idOf[ad.Key()])
		}
	}
	// Caller-save clobbers: everything live across a call interferes with
	// the caller-save half of the machine file (the call's own result
	// temp excepted — it IS RetReg).
	nCallerSave := ir.CallerSaveCount(k)
	for i, in := range f.Instrs {
		if in.Op != ir.OpCall {
			continue
		}
		lv.LiveOut[i].ForEach(func(ri int) {
			r := ir.Reg(ri)
			if r == in.Dst {
				return
			}
			v, ok := a.idOf[r]
			if !ok || v < a.k {
				return
			}
			for c := 0; c < nCallerSave; c++ {
				addInit(c, v)
			}
		})
	}
	if conflict != nil {
		return nil, conflict
	}

	// Moves.
	for _, in := range f.Instrs {
		if in.Op != ir.OpI2I || in.Src1 == in.Dst || in.Src1 == ir.None || in.Dst == ir.None {
			continue
		}
		u, v := a.idOf[in.Dst], a.idOf[in.Src1]
		if u == v {
			continue
		}
		mi := len(a.moves)
		a.moves = append(a.moves, move{u, v})
		a.moveState = append(a.moveState, mWorklist)
		a.worklistMoves = append(a.worklistMoves, mi)
		a.moveList[u] = append(a.moveList[u], mi)
		a.moveList[v] = append(a.moveList[v], mi)
	}

	// Chaitin spill costs, shared with the other backends.
	refs := f.RefCounts(nil)
	for id := a.k; id < a.n; id++ {
		r := a.regOf[id]
		if sp.IsTemp(r) {
			a.cost[id] = math.Inf(1)
			continue
		}
		d := a.degree[id]
		if d == 0 {
			d = 1
		}
		a.cost[id] = float64(refs[r]) / float64(d)
	}

	// Initial worklists.
	for id := a.k; id < a.n; id++ {
		switch {
		case a.degree[id] >= a.k:
			a.push(&a.spillWL, id, sSpill)
		case a.moveRelated(id):
			a.push(&a.freezeWL, id, sFreeze)
		default:
			a.push(&a.simplifyWL, id, sSimplify)
		}
	}
	return a, nil
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

// processWorklists runs the George–Appel main loop to exhaustion.
func (a *allocator) processWorklists(tr *obs.Tracer) {
	for {
		switch {
		case len(a.simplifyWL) > 0:
			stop := tr.StartTimer("irc.phase.simplify")
			a.simplify()
			stop()
		case len(a.worklistMoves) > 0:
			stop := tr.StartTimer("irc.phase.coalesce")
			a.coalesce()
			stop()
		case len(a.freezeWL) > 0:
			stop := tr.StartTimer("irc.phase.freeze")
			a.freeze()
			stop()
		case len(a.spillWL) > 0:
			stop := tr.StartTimer("irc.phase.spillselect")
			a.selectSpill()
			stop()
		default:
			return
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
			id, ok := a.idOf[r]
			if !ok {
				missing = append(missing, r)
				return r
			}
			c := a.color[a.getAlias(id)]
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
