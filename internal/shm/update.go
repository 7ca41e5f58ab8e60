package shm

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// Method selects how concurrent updates of the global force array are
// protected, Section 7 of the paper. For the three per-update methods
// (Atomic, SelectedAtomic, Unprotected) the method sets what the cost
// model charges; the host runs all three on one lock-free,
// deterministic loop (see Updater).
type Method int

const (
	// Atomic protects every accumulation with a per-particle lock
	// ("making every update atomic"): every update is charged as a
	// lock.
	Atomic Method = iota
	// SelectedAtomic consults a conflict table built at link-list
	// time and locks only particles genuinely updated by more than
	// one thread — the paper's winning strategy on the Compaq. Only
	// updates of those particles are charged as locks.
	SelectedAtomic
	// CriticalReduction accumulates into thread-private arrays and
	// performs the global sum inside a critical region; the paper
	// reports "extremely poor results which are not shown".
	CriticalReduction
	// Stripe accumulates privately then reduces in T rounds, each
	// thread always updating a different stripe of the global array,
	// with a barrier between rounds.
	Stripe
	// Transpose accumulates into a [T][N] temporary and reduces in
	// parallel over the particle index.
	Transpose
	// Unprotected charges plain unlocked updates. It exists only for
	// the paper's Section 9.2 ablation ("an incorrect code ...
	// simulating a machine with an extremely efficient atomic lock"):
	// the paper's code races, while this one runs the same correct
	// host loop as the locked methods and charges no locks.
	Unprotected
)

var methodNames = map[Method]string{
	Atomic:            "atomic",
	SelectedAtomic:    "selected-atomic",
	CriticalReduction: "critical-reduction",
	Stripe:            "stripe",
	Transpose:         "transpose",
	Unprotected:       "unprotected",
}

func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists the strategies the paper benchmarks (Figure 4/5 show
// atomic, selected atomic, and the stripe/transpose pair; the critical
// reduction is measured but unplotted).
var Methods = []Method{Atomic, SelectedAtomic, CriticalReduction, Stripe, Transpose}

// PairForceHook, when non-nil, intercepts every pair force computed by
// the shared-memory updaters (per-block and fused) before it is
// accumulated: it receives the update method and the two particle IDs
// and returns the force to apply to endpoint I. It is a fault-injection
// point for the conformance harness in internal/verify — a test can
// corrupt the output of exactly one update strategy and assert the
// differential runner localises the divergence — and must stay nil in
// production. Set and clear it only while no simulation is running.
var PairForceHook func(m Method, idI, idJ int32, fi geom.Vec) geom.Vec

// ConflictTable records which particles are updated by links belonging
// to more than one thread under the static link distribution. It stays
// valid for as long as the link list does: "the table is valid for
// many force calculations until the linked list is next recalculated".
// Its storage (including the owner scratch used during construction)
// is reused across rebuilds.
type ConflictTable struct {
	shared  []bool
	owner   []int32 // construction scratch: first thread to touch each particle
	nShared int
}

// resize prepares the table's storage for nParticles, clearing it.
func (ct *ConflictTable) resize(nParticles int) {
	if cap(ct.shared) < nParticles {
		ct.shared = make([]bool, nParticles)
		ct.owner = make([]int32, nParticles)
	}
	ct.shared = ct.shared[:nParticles]
	ct.owner = ct.owner[:nParticles]
	for i := range ct.shared {
		ct.shared[i] = false
	}
	for i := range ct.owner {
		ct.owner[i] = -1
	}
	ct.nShared = 0
}

// mark records that thread t updates particle p; the second distinct
// thread makes p shared. Halo copies (p >= nCore) are never updated,
// hence never shared.
func (ct *ConflictTable) mark(p, t int32, nCore int) {
	if int(p) >= nCore {
		return
	}
	switch ct.owner[p] {
	case -1:
		ct.owner[p] = t
	case t:
	default:
		if !ct.shared[p] {
			ct.shared[p] = true
			ct.nShared++
		}
	}
}

// rebuild scans links as distributed over T threads (the static chunk
// schedule) and marks particles with links belonging to more than one
// thread, reusing the table's storage.
func (ct *ConflictTable) rebuild(links []cell.Link, nParticles, nCore, T int) {
	ct.resize(nParticles)
	n := len(links)
	for t := 0; t < T; t++ {
		lo, hi := chunk(n, T, t)
		for _, l := range links[lo:hi] {
			ct.mark(l.I, int32(t), nCore)
			ct.mark(l.J, int32(t), nCore)
		}
	}
}

// rebuildRanges is rebuild for an explicit per-thread link range list
// (the fused updater's global chunking clipped to one piece).
func (ct *ConflictTable) rebuildRanges(links []cell.Link, nParticles, nCore int, ranges [][2]int) {
	ct.resize(nParticles)
	for t, r := range ranges {
		for _, l := range links[r[0]:r[1]] {
			ct.mark(l.I, int32(t), nCore)
			ct.mark(l.J, int32(t), nCore)
		}
	}
}

// BuildConflictTable scans links as distributed over T threads and
// marks particles with links belonging to more than one thread.
func BuildConflictTable(links []cell.Link, nParticles, nCore, T int) *ConflictTable {
	ct := new(ConflictTable)
	ct.rebuild(links, nParticles, nCore, T)
	return ct
}

// NumShared returns the number of particles needing protection.
func (ct *ConflictTable) NumShared() int { return ct.nShared }

// Updater executes the thread-parallel force accumulation for one
// block with a chosen protection method. It owns the conflict table,
// the per-thread update logs and the reduction scratch, sized lazily
// to the block.
//
// The per-update methods (Atomic, SelectedAtomic, Unprotected) share
// one lock-free host execution, the owner-write loop: each thread runs
// the SoA pair kernel over its static link chunk and writes the
// particles only it updates straight into the force array; thread 0
// also writes the shared ones, and every other thread logs its updates
// of shared particles. After the join the master replays the logs in
// thread order. Chunks are contiguous in link order, so each particle
// receives its increments in exactly the serial link order and the
// result is bit-identical to the serial kernel at any team size and
// any scheduling. The methods differ only in what the cost model
// charges: the lock counts Prepare derives from the conflict table.
type Updater struct {
	Method Method
	priv   [][]float64 // T thread-private force arrays, layout [i*D+k]
	ct     *ConflictTable
	own    ownerWrites

	// Prepared geometry, recorded so Accumulate can detect a
	// mismatched team or link list instead of racing silently.
	preparedT     int
	preparedLinks int

	// Reused per-call scratch and region bodies (no closures on the
	// hot path).
	epotPer []float64
	args    accArgs
	ownerB  ownerBody
	reduceB reduceBody

	// turn admits threads to the critical reduction's combine in
	// thread order.
	turn atomic.Int32
}

// NewUpdater returns an updater for the given method.
func NewUpdater(m Method) *Updater { return &Updater{Method: m} }

// ownerWrite reports whether m runs on the owner-write loop.
func ownerWrite(m Method) bool {
	return m == Atomic || m == SelectedAtomic || m == Unprotected
}

// Prepare must be called whenever the link list changes: for the
// per-update methods it (re)builds the conflict table, the per-thread
// charge counts and the update logs. T is the team size the force loop
// will use; Accumulate panics if run with a different team size or
// link count.
func (u *Updater) Prepare(links []cell.Link, nParticles, nCore, T int) {
	if ownerWrite(u.Method) {
		if u.ct == nil {
			u.ct = new(ConflictTable)
		}
		u.ct.rebuild(links, nParticles, nCore, T)
		u.own.reset(T, 1)
		n := len(links)
		for t := 0; t < T; t++ {
			lo, hi := chunk(n, T, t)
			u.own.count(t, u.Method, links[lo:hi], u.ct.shared, nCore)
		}
		u.own.allocLogs()
	}
	u.preparedT = T
	u.preparedLinks = len(links)
	if cap(u.epotPer) < T {
		u.epotPer = make([]float64, T)
	}
	u.epotPer = u.epotPer[:T]
}

// Conflicts returns the conflict table built by the last Prepare for
// the selected-atomic method, or nil for methods that do not consult
// one when charging.
func (u *Updater) Conflicts() *ConflictTable {
	if u.Method != SelectedAtomic {
		return nil
	}
	return u.ct
}

// ensurePriv sizes and zeroes the T private arrays of d*n floats each
// and returns them. The zeroing traffic is charged to the threads by
// the reduction kernels; "all array reduction techniques place a heavy
// demand on the memory system".
func (u *Updater) ensurePriv(T, words int) [][]float64 {
	if len(u.priv) < T {
		u.priv = append(u.priv, make([][]float64, T-len(u.priv))...)
	}
	for t := 0; t < T; t++ {
		if cap(u.priv[t]) < words {
			u.priv[t] = make([]float64, words)
		} else {
			u.priv[t] = u.priv[t][:words]
			for i := range u.priv[t] {
				u.priv[t][i] = 0
			}
		}
	}
	return u.priv[:T]
}

// accArgs carries one Accumulate call's inputs to the region bodies.
type accArgs struct {
	sp         force.Spring
	ps         *particle.Store
	links      []cell.Link
	nCoreLinks int
	nCore      int
	box        geom.Box
	hook       func(m Method, idI, idJ int32, fi geom.Vec) geom.Vec
	priv       [][]float64
	words      int

	// gate, when non-nil, blocks each thread at the core/halo link
	// boundary of its chunk until the rank's split-phase halo exchange
	// has landed (overlapped force path). Iteration order is unchanged:
	// the gate is a pause inside the same single loop, so the conflict
	// table and the accumulation order stay valid.
	gate *HaloGate
}

// ownerBody runs the owner-write loop of the per-update methods
// (atomic, selected-atomic, unprotected) for one thread.
type ownerBody struct{ u *Updater }

func (b *ownerBody) RunThread(th *Thread) { b.u.ownerThread(th) }

// reduceBody runs the array-reduction methods for one thread.
type reduceBody struct{ u *Updater }

func (b *reduceBody) RunThread(th *Thread) { b.u.reduceThread(th) }

// Accumulate runs the parallel force loop over the block's single
// link list (core links first, then halo links whose energy counts
// half), adding pair forces into ps.Frc and returning the potential
// energy. Forces land on endpoint I always and on J when J < nCore,
// identically to the serial kernel in internal/force.
//
// The whole list is processed in ONE statically scheduled loop — the
// same distribution Prepare built the conflict table for. Splitting
// core and halo links into separate loops would redistribute links
// over threads and invalidate the table, which is why Accumulate
// panics when the team size or link count differs from Prepare's.
func (u *Updater) Accumulate(tm *Team, sp force.Spring, ps *particle.Store, links []cell.Link, nCoreLinks, nCore int, box geom.Box) float64 {
	tm.RunRegion(u.setupRegion(tm, sp, ps, links, nCoreLinks, nCore, box, nil))
	return u.finish()
}

// AccumulateStart dispatches the force region to the worker threads
// and returns without running the master's share: the rank goroutine
// is free to drain its split-phase halo exchange while threads 1..T-1
// chew through the core links. Threads reaching the core/halo boundary
// block on gate until the caller opens it; the caller then completes
// the region with AccumulateFinish.
func (u *Updater) AccumulateStart(tm *Team, sp force.Spring, ps *particle.Store, links []cell.Link, nCoreLinks, nCore int, box geom.Box, gate *HaloGate) {
	tm.StartRegion(u.setupRegion(tm, sp, ps, links, nCoreLinks, nCore, box, gate))
}

// AccumulateFinish runs the master's share of a region begun with
// AccumulateStart — starting no earlier than masterAt on the virtual
// timeline — joins the team, and returns the potential energy.
func (u *Updater) AccumulateFinish(tm *Team, masterAt float64) float64 {
	tm.FinishRegion(masterAt)
	return u.finish()
}

// setupRegion validates the call against Prepare, stores the region
// inputs, and returns the reused body for the updater's method.
func (u *Updater) setupRegion(tm *Team, sp force.Spring, ps *particle.Store, links []cell.Link, nCoreLinks, nCore int, box geom.Box, gate *HaloGate) RegionBody {
	if tm.T != u.preparedT || len(links) != u.preparedLinks {
		panic(fmt.Sprintf("shm: updater prepared for T=%d over %d links, run with T=%d over %d links",
			u.preparedT, u.preparedLinks, tm.T, len(links)))
	}
	u.args = accArgs{
		sp:         sp,
		ps:         ps,
		links:      links,
		nCoreLinks: nCoreLinks,
		nCore:      nCore,
		box:        box,
		hook:       PairForceHook,
		gate:       gate,
	}

	switch u.Method {
	case Atomic, SelectedAtomic, Unprotected:
		u.own.setHook(u.Method, u.args.hook)
		u.ownerB.u = u
		return &u.ownerB

	case CriticalReduction, Stripe, Transpose:
		u.args.words = ps.Len() * ps.D
		u.args.priv = u.ensurePriv(tm.T, u.args.words)
		u.turn.Store(0)
		u.reduceB.u = u
		return &u.reduceB

	default:
		panic(fmt.Sprintf("shm: unknown update method %v", u.Method))
	}
}

// finish completes a joined region on the master: it replays the
// owner-write logs (a no-op for the reductions) and folds the
// per-thread potential-energy partials in thread order.
func (u *Updater) finish() float64 {
	if ownerWrite(u.Method) {
		u.own.replay()
	}
	epot := 0.0
	for _, e := range u.epotPer {
		epot += e
	}
	return epot
}

// ownerThread is one thread's share of the owner-write loop.
func (u *Updater) ownerThread(th *Thread) {
	a := &u.args
	lo, hi := chunk(len(a.links), th.team.T, th.ID)
	split := u.own.begin(th.ID)
	if th.ID > 0 {
		split.Deferred = u.ct.shared
	}
	var tl spanTally
	tl.run(th, a.sp, a.box, a.ps, a.links, lo, hi, a.nCoreLinks, a.nCore, split, a.gate)
	u.own.endSpan(th.ID, a.ps)
	u.own.charge(th, &tl)
	u.epotPer[th.ID] = tl.epot
}

// reduceThread is one thread's share of the array-reduction methods:
// private accumulation followed by the method's merge.
func (u *Updater) reduceThread(th *Thread) {
	a := &u.args
	tm := th.team
	costs := tm.Costs
	d := a.ps.D
	n := len(a.links)
	lo, hi := chunk(n, tm.T, th.ID)
	epot := 0.0
	var distSum, contacts, contactsHalo int64
	pos, vel, ids := &a.ps.Pos, &a.ps.Vel, a.ps.ID
	mine := a.priv[th.ID]
	gate := a.gate
	if gate != nil && lo >= a.nCoreLinks {
		gate.Wait(th)
		gate = nil
	}
	for li := lo; li < hi; li++ {
		if gate != nil && li == a.nCoreLinks {
			gate.Wait(th)
			gate = nil
		}
		l := a.links[li]
		disp := a.box.DispAt(pos, l.I, l.J)
		rel := geom.SubAt(vel, l.J, l.I, d)
		fi, e, contact := a.sp.PairID(ids[l.I], ids[l.J], disp, rel, d)
		if a.hook != nil {
			fi = a.hook(u.Method, ids[l.I], ids[l.J], fi)
		}
		if li < a.nCoreLinks {
			if contact {
				contacts++
			}
			epot += e
		} else {
			if contact {
				contactsHalo++
			}
			epot += 0.5 * e
		}
		for k := 0; k < d; k++ {
			mine[int(l.I)*d+k] += fi[k]
		}
		if int(l.J) < a.nCore {
			for k := 0; k < d; k++ {
				mine[int(l.J)*d+k] -= fi[k]
			}
		}
		di := int64(l.I) - int64(l.J)
		if di < 0 {
			di = -di
		}
		distSum += di
	}
	nl := int64(hi - lo)
	coreN, haloN := splitLinks(lo, hi, a.nCoreLinks)
	hw := costs.haloWork()
	effLinks := float64(coreN) + float64(haloN)*hw
	th.TC.ForceEvals += nl
	th.TC.LinkVisits += nl
	th.TC.Contacts += contacts + contactsHalo
	th.TC.ForceUpdates += 2 * nl
	th.TC.LinkIndexDistSum += distSum
	th.TC.LinkIndexDistN += nl
	// Private accumulation plus the zeroing traffic of the scratch
	// array.
	th.Compute(effLinks*(costs.PerLink+2*costs.PerUpdate) +
		(float64(contacts)+float64(contactsHalo)*hw)*costs.PerContact +
		float64(a.words)*costs.ReductionWord)
	u.epotPer[th.ID] = epot

	u.reduce(th, tm, a.ps, a.words, d, a.priv)
}

// splitLinks returns how many of the links in [lo, hi) fall before
// the core/halo boundary at nCoreLinks.
func splitLinks(lo, hi, nCoreLinks int) (core, halo int64) {
	c := nCoreLinks - lo
	if c < 0 {
		c = 0
	}
	if c > hi-lo {
		c = hi - lo
	}
	return int64(c), int64(hi - lo - c)
}

// reduce merges the thread-private arrays into ps.Frc according to the
// method. Called from within the region by every thread; contains the
// barriers each strategy needs.
// The private arrays keep their particle-major [i*d+k] word layout:
// the stripe and transpose schedules assign words to threads and
// rounds by word index, so changing the layout would reorder each
// element's per-thread contributions and move bits. Only the final
// destination changes: word i lands in component i%d of particle i/d.
func (u *Updater) reduce(th *Thread, tm *Team, ps *particle.Store, words, d int, priv [][]float64) {
	frc := &ps.Frc
	switch u.Method {
	case CriticalReduction:
		// Threads serialise on the critical section; the virtual
		// clock models the serialisation by staggering completion in
		// thread order, so the modelled region time grows as T times
		// the reduction work — the paper's "extremely poor" result.
		//
		// On the host, threads enter the combine in thread order
		// through the turn counter instead of the team mutex, so the
		// summation order — and with it every bit of the result — is
		// independent of scheduling. The turn counter is host-only:
		// the modelled charges below are those of the critical
		// section it stands in for.
		th.Barrier() // all private arrays complete
		for u.turn.Load() != int32(th.ID) {
			if tm.bar.isAborted() {
				panic("shm: critical reduction abandoned by a panicked thread")
			}
			runtime.Gosched()
		}
		mine := priv[th.ID]
		for i := 0; i < words; i++ {
			frc[i%d][i/d] += mine[i]
		}
		u.turn.Add(1)
		th.Compute(tm.Costs.Critical)
		th.TC.CriticalEnters++
		th.TC.ReductionWords += int64(words)
		th.Compute(float64(th.ID+1) * float64(words) * tm.Costs.ReductionWord)
		th.Barrier()

	case Stripe:
		// T rounds; in round r thread t owns stripe (t+r) mod T, so
		// no two threads ever touch the same portion of the global
		// array; a barrier separates rounds.
		th.Barrier()
		T := tm.T
		mine := priv[th.ID]
		for r := 0; r < T; r++ {
			s := (th.ID + r) % T
			lo, hi := chunk(words, T, s)
			for i := lo; i < hi; i++ {
				frc[i%d][i/d] += mine[i]
			}
			th.TC.ReductionWords += int64(hi - lo)
			th.Compute(float64(hi-lo) * tm.Costs.ReductionWord)
			th.Barrier()
		}

	case Transpose:
		// Parallel reduction over the main particle index: thread t
		// sums column chunk [lo,hi) across all T private arrays.
		th.Barrier()
		lo, hi := chunk(words, tm.T, th.ID)
		for t := 0; t < tm.T; t++ {
			mine := priv[t]
			for i := lo; i < hi; i++ {
				frc[i%d][i/d] += mine[i]
			}
		}
		th.TC.ReductionWords += int64((hi - lo) * tm.T)
		th.Compute(float64((hi-lo)*tm.T) * tm.Costs.ReductionWord)
		th.Barrier()
	}
}
