package shm

import (
	"fmt"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// BlockStore pairs a block's particle store with its core count for
// the whole-rank fused kernels.
type BlockStore struct {
	PS    *particle.Store
	NCore int
}

type zeroBlocksBody struct {
	blocks []*BlockStore
}

func (b *zeroBlocksBody) RunThread(th *Thread) {
	tm := th.team
	total := 0
	for _, blk := range b.blocks {
		lo, hi := chunk(blk.NCore, tm.T, th.ID)
		for k := 0; k < blk.PS.D; k++ {
			frc := blk.PS.Frc[k][lo:hi]
			for i := range frc {
				frc[i] = 0
			}
		}
		total += hi - lo
	}
	th.Compute(float64(total) * tm.Costs.PerParticle / 4)
}

// ZeroForcesAllBlocks clears the core force accumulators of every
// block inside a single parallel region — the paper's optimisation of
// "having a single parallel region enclosing the outer loop over
// blocks" for the simple loops.
func ZeroForcesAllBlocks(tm *Team, blocks []*BlockStore) {
	tm.kZeroB = zeroBlocksBody{blocks: blocks}
	tm.RunRegion(&tm.kZeroB)
}

type integrateBlocksBody struct {
	blocks []*BlockStore
	cores  []int
	dt     float64
	box    geom.Box
	mode   force.WrapMode
}

func (b *integrateBlocksBody) RunThread(th *Thread) {
	tm := th.team
	total := 0
	for i, blk := range b.blocks {
		lo, hi := chunk(b.cores[i], tm.T, th.ID)
		force.IntegrateRange(blk.PS, lo, hi, b.dt, b.box, b.mode, &th.TC)
		total += hi - lo
	}
	th.Compute(float64(total) * tm.Costs.PerParticle)
}

// IntegrateAllBlocks advances every block's core particles in a single
// parallel region; chunks are disjoint so no synchronisation is needed
// between blocks.
func IntegrateAllBlocks(tm *Team, blocks []*BlockStore, cores []int, dt float64, box geom.Box, mode force.WrapMode) {
	tm.kIntegB = integrateBlocksBody{blocks: blocks, cores: cores, dt: dt, box: box, mode: mode}
	tm.RunRegion(&tm.kIntegB)
}

// FusedPiece is one block's contribution to the fused force loop.
type FusedPiece struct {
	PS         *particle.Store
	Links      []cell.Link
	NCoreLinks int // links [0:NCoreLinks) are core-core (full energy)
	NCore      int // particle indices >= NCore are halo copies
}

// FusedUpdater implements the paper's Section 11 proposal: "a single
// parallel loop over all links in all blocks rather than one loop per
// block". Threads chunk the *concatenated* link list, so with many
// blocks per thread most blocks are private to one thread and the
// conflict (lock) fraction collapses, while fork/join overhead drops
// from one region per block to one region per iteration. It runs the
// owner-write loop of Updater over the pieces in order, so every
// block's forces are bit-identical to the serial kernel's. All scratch
// (offsets, conflict tables, logs) is reused across Prepare calls.
type FusedUpdater struct {
	Method Method

	pieces  []FusedPiece
	offsets []int // global link offset of each piece; len(pieces)+1
	total   int
	T       int
	tables  []*ConflictTable
	ranges  [][2]int // per-thread range scratch, reused per piece
	own     ownerWrites

	epotPer []float64
	sp      force.Spring
	box     geom.Box
	gate    *HaloGate
	body    fusedBody
}

// NewFusedUpdater returns a fused updater; only the per-update
// protection methods make sense here (array reductions would need a
// private copy of every block).
func NewFusedUpdater(m Method) *FusedUpdater {
	switch m {
	case Atomic, SelectedAtomic, Unprotected:
		return &FusedUpdater{Method: m}
	default:
		panic(fmt.Sprintf("shm: fused updater does not support method %v", m))
	}
}

// Prepare recomputes the global chunking, the per-piece conflict
// tables and the per-thread charge counts and logs for the current
// lists, reusing the updater's scratch; call at every
// rebuild. The pieces slice is retained (not copied), so callers that
// rebuild repeatedly should reuse one slice.
func (fu *FusedUpdater) Prepare(pieces []FusedPiece, T int) {
	fu.pieces = pieces
	fu.T = T
	if cap(fu.offsets) < len(pieces)+1 {
		fu.offsets = make([]int, len(pieces)+1)
	}
	fu.offsets = fu.offsets[:len(pieces)+1]
	fu.offsets[0] = 0
	for i, p := range pieces {
		fu.offsets[i+1] = fu.offsets[i] + len(p.Links)
	}
	fu.total = fu.offsets[len(pieces)]
	if cap(fu.tables) < len(pieces) {
		tables := make([]*ConflictTable, len(pieces))
		copy(tables, fu.tables)
		fu.tables = tables
	}
	fu.tables = fu.tables[:len(pieces)]
	fu.own.reset(T, len(pieces))
	if cap(fu.ranges) < T {
		fu.ranges = make([][2]int, T)
	}
	ranges := fu.ranges[:T]
	for i, p := range pieces {
		for t := 0; t < T; t++ {
			glo, ghi := chunk(fu.total, T, t)
			lo := clampRange(glo-fu.offsets[i], len(p.Links))
			hi := clampRange(ghi-fu.offsets[i], len(p.Links))
			if hi < lo {
				hi = lo
			}
			ranges[t] = [2]int{lo, hi}
		}
		if fu.tables[i] == nil {
			fu.tables[i] = new(ConflictTable)
		}
		fu.tables[i].rebuildRanges(p.Links, p.PS.Len(), p.NCore, ranges)
		for t, r := range ranges {
			fu.own.count(t, fu.Method, p.Links[r[0]:r[1]], fu.tables[i].shared, p.NCore)
		}
	}
	fu.own.allocLogs()
	if cap(fu.epotPer) < T {
		fu.epotPer = make([]float64, T)
	}
	fu.epotPer = fu.epotPer[:T]
}

// clampRange clips a piece-local index into [0, n].
func clampRange(v, n int) int {
	if v < 0 {
		return 0
	}
	if v > n {
		return n
	}
	return v
}

// NumShared returns the total number of protected particles across
// all pieces under the selected-atomic method, 0 for the others.
func (fu *FusedUpdater) NumShared() int {
	if fu.Method != SelectedAtomic {
		return 0
	}
	n := 0
	for _, t := range fu.tables {
		n += t.nShared
	}
	return n
}

type fusedBody struct{ fu *FusedUpdater }

func (b *fusedBody) RunThread(th *Thread) { b.fu.runThread(th) }

// AccumulateStart dispatches the fused force loop — one parallel region
// over every piece's links — to the worker threads and returns
// immediately so the rank goroutine can drain its split-phase halo
// exchange; threads block on gate (when non-nil) at the core/halo
// boundary of their chunk. Complete with AccumulateFinish.
func (fu *FusedUpdater) AccumulateStart(tm *Team, sp force.Spring, box geom.Box, gate *HaloGate) {
	fu.setupRegion(tm, sp, box, gate)
	tm.StartRegion(&fu.body)
}

// AccumulateFinish runs the master's share of a region begun with
// AccumulateStart (starting no earlier than masterAt), joins the team,
// and returns the total potential energy (halo links at half weight).
func (fu *FusedUpdater) AccumulateFinish(tm *Team, masterAt float64) float64 {
	tm.FinishRegion(masterAt)
	return fu.finish()
}

func (fu *FusedUpdater) setupRegion(tm *Team, sp force.Spring, box geom.Box, gate *HaloGate) {
	if tm.T != fu.T {
		panic(fmt.Sprintf("shm: fused updater prepared for T=%d, run with T=%d", fu.T, tm.T))
	}
	fu.sp = sp
	fu.box = box
	fu.own.setHook(fu.Method, PairForceHook)
	fu.gate = gate
	fu.body.fu = fu
}

// finish replays the owner-write logs on the master and folds the
// per-thread potential-energy partials in thread order.
func (fu *FusedUpdater) finish() float64 {
	fu.own.replay()
	epot := 0.0
	for _, e := range fu.epotPer {
		epot += e
	}
	return epot
}

// runThread is one thread's share of the fused force loop: its global
// chunk clipped to each piece in turn.
func (fu *FusedUpdater) runThread(th *Thread) {
	glo, ghi := chunk(fu.total, th.team.T, th.ID)
	split := fu.own.begin(th.ID)
	var tl spanTally
	// One gate wait suffices: the exchange delivers every block's halo
	// before the gate opens, so after the first wait the remaining
	// pieces' halo links are safe too.
	gate := fu.gate
	for pi := range fu.pieces {
		p := &fu.pieces[pi]
		lo := max(glo-fu.offsets[pi], 0)
		hi := min(ghi-fu.offsets[pi], len(p.Links))
		if hi <= lo {
			continue
		}
		if th.ID > 0 {
			split.Deferred = fu.tables[pi].shared
		}
		gate = tl.run(th, fu.sp, fu.box, p.PS, p.Links, lo, hi, p.NCoreLinks, p.NCore, split, gate)
		fu.own.endSpan(th.ID, p.PS)
	}
	fu.own.charge(th, &tl)
	fu.epotPer[th.ID] = tl.epot
}
