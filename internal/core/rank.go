package core

import (
	"fmt"
	"time"

	"hybriddem/internal/decomp"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/mp"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// rankSim is one rank's state in an MPI, MPIsm or Hybrid run: its
// share of the block-cyclic decomposition plus, in hybrid mode, the
// rank's thread team — "one process per SMP ... one thread per CPU" —
// or, in mpism mode, the rank's shared window over its node group.
type rankSim struct {
	cfg *Config
	c   *mp.Comm
	dm  *decomp.Domain

	team  *shm.Team      // nil in MPI mode
	upds  []*shm.Updater // per owned block (hybrid)
	fused *shm.FusedUpdater

	// Per-step scratch, refreshed at rebuild so the step loop itself
	// allocates nothing: block views for the team kernels, the fused
	// piece list, the two-element energy reduction buffer, the
	// rebuild-vote buffer, and the gate that holds hybrid threads at
	// the core/halo link boundary until the split-phase exchange lands.
	stores []*shm.BlockStore
	cores  []int
	pieces []shm.FusedPiece
	energy [2]float64
	vote   [1]float64
	gate   *shm.HaloGate // hybrid only

	linkCost, contactCost, updCost, partCost float64

	rebuilds int
	meanDist float64
	epot     float64
	ekin     float64
	iter     int

	forceTime, updateTime, commTime, collTime float64
}

// span records a phase interval on the configured timeline.
func (r *rankSim) span(phase string, t0, t1 float64) {
	if tl := r.cfg.Timeline; tl != nil {
		tl.Add(r.c.Rank(), r.iter, phase, t0, t1)
	}
}

// activePerNode returns the number of busy CPUs sharing one SMP
// node's memory system under this run shape.
func activePerNode(cfg *Config, pf *machine.Platform) int {
	if pf == nil {
		return 1
	}
	switch cfg.Mode {
	case Hybrid:
		return cfg.T
	case MPI, MPIsm:
		if cfg.P < pf.CPUsPerNode {
			return cfg.P
		}
		return pf.CPUsPerNode
	default:
		return cfg.T
	}
}

func newRankSim(cfg *Config, c *mp.Comm, l *decomp.Layout) *rankSim {
	r := &rankSim{cfg: cfg, c: c}
	// A checkpointed ORB decomposition resumes where it left off: apply
	// the tree's ownership to a private clone of the layout (the shared
	// original must stay immutable) and seed the domain's adopted tree
	// so the first epoch applies hysteresis against it instead of
	// re-adopting from the cyclic deal. A tree whose shape no longer
	// matches (e.g. after a degrade-and-recover changed P) is ignored.
	seedTree := cfg.Rebalance == RebalanceORB && cfg.InitTree != nil && cfg.InitTree.Matches(l)
	if seedTree {
		owned := l.Clone()
		cfg.InitTree.ApplyOwners(owned)
		l = owned
	}
	r.dm = decomp.NewDomain(l, c, cfg.needsHaloVel())
	r.dm.Rebalance = cfg.Rebalance
	r.dm.RebalanceHyst = cfg.RebalanceHyst
	if seedTree {
		r.dm.SeedORBTree(cfg.InitTree)
	}
	if pf := cfg.Platform; pf != nil {
		// Exchange traffic is surface-proportional: both the pack
		// work and the modelled wire bytes scale with
		// (ModelN/N)^((D-1)/D).
		r.dm.PackCost = pf.PackCost() * cfg.surfScale()
		c.SetByteScale(cfg.surfScale())
		if cfg.NaivePack {
			r.dm.PackFactor = 3 // gather + wire copy + scatter
		}
		if cfg.SelfMessage {
			ss := cfg.surfScale()
			r.dm.SelfMsgCost = func(bytes int) float64 {
				return pf.IntraLat + float64(bytes)*ss/pf.IntraBw
			}
		}
	}
	if cfg.Mode == MPIsm {
		// MPI+MPI_sm: attach a shared window over this rank's node
		// group so same-node halo legs travel as fenced window loads.
		// A rank alone on its node (odd P, or single-CPU nodes like the
		// T3E's) skips the window and keeps the pure message path.
		if g := c.SplitNode(); g.Size() > 1 {
			var wc mp.WinCosts
			if pf := cfg.Platform; pf != nil {
				wc = pf.WinCosts()
			}
			r.dm.SetWin(mp.NewWin(g, wc))
		}
	}
	if cfg.Mode == Hybrid {
		r.team = shm.NewTeam(cfg.T, shm.Costs{})
		r.gate = shm.NewHaloGate()
		if cfg.Watchdog > 0 {
			r.gate.SetDeadline(cfg.Watchdog)
		}
		if cfg.Fused {
			r.fused = shm.NewFusedUpdater(cfg.Method)
		} else {
			for range r.dm.Blocks {
				r.upds = append(r.upds, shm.NewUpdater(cfg.Method))
			}
		}
	}
	return r
}

// rebuild runs the full list-invalidation sequence and rederives the
// modelled costs for the new list's locality.
func (r *rankSim) rebuild() {
	cfg := r.cfg
	r.dm.Rebuild(cfg.Reorder)
	r.rebuilds++
	if t0, t1, moved := r.dm.LastRebalance(); moved {
		phase := "rebalance"
		if cfg.Rebalance == RebalanceORB {
			phase = "orb"
		}
		r.span(phase, t0, t1)
	}

	// Locality metric across this rank's blocks.
	var sum int64
	var n int64
	for _, b := range r.dm.Blocks {
		for _, l := range b.List.Links {
			d := int64(l.I) - int64(l.J)
			if d < 0 {
				d = -d
			}
			sum += d
		}
		n += int64(len(b.List.Links))
	}
	if n > 0 {
		r.meanDist = float64(sum) / float64(n)
	}

	if pf := cfg.Platform; pf != nil {
		cp := machine.CostParams{D: cfg.D, MeanLinkDist: cfg.modelDist(r.meanDist), ActivePerNode: activePerNode(cfg, pf)}
		ws := cfg.workScale()
		// Amortise the per-particle force-pass memory traffic over
		// this rank's links (halo copies are read too).
		parts := 0
		for _, b := range r.dm.Blocks {
			parts += b.PS.Len()
		}
		memPerLink := 0.0
		if n := r.dm.NumLinks(); n > 0 {
			memPerLink = pf.ForceMemCost(cp) * float64(parts) / float64(n)
		}
		r.linkCost = (pf.LinkCost(cp) + memPerLink) * ws
		r.contactCost = pf.ContactPairCost(cp) * ws
		r.updCost = pf.UpdateCost(cp) * ws
		r.partCost = pf.ParticleCost(cp) * ws
		if r.team != nil {
			costs := pf.ShmCosts(cfg.T, cp)
			costs.PerLink += memPerLink
			costs = costs.ScaleWork(ws, cfg.atomicScale())
			costs.HaloWork = cfg.surfScale() / ws
			r.team.SetCosts(costs)
		}
	}

	if r.team != nil {
		r.refreshBlockViews()
		if r.fused != nil {
			if cap(r.pieces) < len(r.dm.Blocks) {
				r.pieces = make([]shm.FusedPiece, len(r.dm.Blocks))
			}
			r.pieces = r.pieces[:len(r.dm.Blocks)]
			for i, b := range r.dm.Blocks {
				r.pieces[i] = shm.FusedPiece{PS: b.PS, Links: b.List.Links, NCoreLinks: b.List.NCore, NCore: b.NCore}
			}
			r.fused.Prepare(r.pieces, cfg.T)
		} else {
			// The rebalancer can grow this rank's block count past what
			// newRankSim saw.
			for len(r.upds) < len(r.dm.Blocks) {
				r.upds = append(r.upds, shm.NewUpdater(cfg.Method))
			}
			for i, b := range r.dm.Blocks {
				r.upds[i].Prepare(b.List.Links, b.PS.Len(), b.NCore, cfg.T)
			}
		}
	}
}

// refreshBlockViews resyncs the cached per-block views the team
// kernels consume. Core counts only change at rebuild (migration), so
// the step loop can hand these to ZeroForcesAllBlocks /
// IntegrateAllBlocks without per-step allocation.
func (r *rankSim) refreshBlockViews() {
	nb := len(r.dm.Blocks)
	for len(r.stores) < nb {
		r.stores = append(r.stores, &shm.BlockStore{})
	}
	r.stores = r.stores[:nb]
	if cap(r.cores) < nb {
		r.cores = make([]int, nb)
	}
	r.cores = r.cores[:nb]
	for i, b := range r.dm.Blocks {
		*r.stores[i] = shm.BlockStore{PS: b.PS, NCore: b.NCore}
		r.cores[i] = b.NCore
	}
}

// close releases the hybrid thread team's parked workers (no-op in
// MPI mode).
func (r *rankSim) close() {
	if r.team != nil {
		r.team.Close()
	}
}

// clock returns the rank's modelled time: the team clock in hybrid
// mode (regions advance it past the comm clock), otherwise the comm
// clock. The two are kept in step by syncClocks.
func (r *rankSim) clock() float64 {
	if r.team != nil {
		return r.team.Clock()
	}
	return r.c.Clock()
}

// syncClocks folds communication waits into the team clock and vice
// versa so a single timeline covers both runtimes.
func (r *rankSim) syncClocks() {
	if r.team == nil {
		return
	}
	if r.c.Clock() > r.team.Clock() {
		r.team.SetClock(r.c.Clock())
	} else {
		r.c.SetClock(r.team.Clock())
	}
}

// step advances one iteration and returns the modelled seconds of the
// timed window (halo swap + force + energy + update). Every step posts
// the split-phase halo exchange; cfg.Overlap picks the schedule. The
// overlapped schedule drains the exchange inside the force pass, behind
// the core links (which read no halo data), and posts the energy
// allreduce together with the rebuild vote, charging max(comm, core
// compute) where the synchronous schedule — the paper's halo swap —
// drains before forces are zeroed, runs the two collectives back to
// back, and pays the sum. Each particle accumulates zero, core links in
// list order, halo links in list order, gravity under both schedules,
// so their trajectories are bit-identical.
func (r *rankSim) step() float64 {
	cfg := r.cfg
	dm := r.dm
	r.syncClocks()
	t0 := r.clock()

	r.iter++

	c0 := r.clock()
	dm.BeginRefreshHalos()
	if !cfg.Overlap {
		dm.FinishRefreshHalos()
	}
	r.syncClocks()
	c1 := r.clock() // the post, or the whole exchange when synchronous

	var epot float64
	if r.team == nil {
		epot = r.forceRank(c0, c1)
	} else {
		epot = r.forceTeam(c0, c1)
	}

	// Update phase: integrate core particles of every block.
	u0 := r.clock()
	ekin := r.integrate(cfg.Box())
	r.syncClocks()
	r.updateTime += r.clock() - u0
	r.span("update", u0, r.clock())

	// Energy: reduced within the team by the region join, over blocks
	// by the rank, and over ranks by the collective (in place, into
	// the rank's persistent two-element buffer). The collective gets
	// its own phase bucket, not update's: a rank blocked here is
	// waiting on the slowest rank, and folding that wait into the
	// update phase would hide exactly the per-rank load imbalance the
	// phase split (and Result.Imbalance) exists to expose. It is kept
	// out of comm too, so the comm column stays a pure halo-exchange
	// measure (what the overlap figures difference). Under overlap the
	// rebuild vote is posted before the energy wait, which covers most
	// of the vote's latency.
	e0 := r.clock()
	r.energy[0], r.energy[1] = epot, ekin
	eReq := r.c.IAllreduceInPlace(r.energy[:], mp.Sum)
	var vReq *mp.CollRequest
	if cfg.Overlap {
		vReq = r.postVote()
	}
	eReq.Wait()
	r.epot, r.ekin = r.energy[0], r.energy[1]
	r.syncClocks()
	r.collTime += r.clock() - e0
	r.span("coll", e0, r.clock())

	elapsed := r.clock() - t0

	// The rebuild vote completes, and the rebuild runs, outside the
	// timed window.
	b0 := r.clock()
	if vReq == nil {
		vReq = r.postVote()
	}
	vReq.Wait()
	r.syncClocks()
	if skin := cfg.Skin(); r.vote[0] >= skin*skin {
		r.rebuild()
		r.syncClocks()
		r.span("rebuild", b0, r.clock())
	}
	r.syncClocks()
	return elapsed
}

// postVote posts the collective list-validity vote: the largest
// squared core displacement since the last rebuild over all ranks.
func (r *rankSim) postVote() *mp.CollRequest {
	r.vote[0] = r.dm.MaxCoreDisp2()
	return r.c.IAllreduceInPlace(r.vote[:], mp.Max)
}

// forceRank is the force pass of a single-threaded rank. The core-link
// pass (it touches no halo storage) runs in D stages; while the
// exchange is in flight one dimension drains between stages, so each
// leg's flight time is covered by the next stage's compute. Draining
// mid-pass matters beyond hiding the first leg: a later dimension's
// sends cannot depart before the earlier halos land, so a rank that
// drained only after its full core pass would hold up its neighbours'
// later legs — the progressive drain posts each dimension after
// roughly 1/D of the pass instead. The core links of each block still
// run in list order across the stages. The post (c0-c1), exposed waits
// and pack/unpack charges are attributed to comm, the stages to force,
// and "overlap" spans mark the windows in-flight messages hide behind.
func (r *rankSim) forceRank(c0, c1 float64) float64 {
	cfg := r.cfg
	dm := r.dm
	plain := dm.PlainBox()
	d := cfg.D
	// Halo-link counts are a surface effect, so their charges get the
	// surface/bulk weight when modelling a larger system.
	hw := cfg.surfScale() / cfg.workScale()
	epot := 0.0

	r.commTime += c1 - c0
	r.span("comm", c0, c1)

	for _, b := range dm.Blocks {
		b.PS.ZeroForces()
	}

	// The refresh has exactly d dimensions, so the final stage's drain
	// completes it.
	inFlight := cfg.Overlap
	for s := 0; s < d; s++ {
		f0 := r.clock()
		for _, b := range dm.Blocks {
			links := b.List.CoreLinks()
			lo, hi := len(links)*s/d, len(links)*(s+1)/d
			cc0 := dm.TC.Contacts
			epot += cfg.Spring.Accumulate(b.PS, links[lo:hi], b.NCore, plain, 1, &dm.TC)
			cc := dm.TC.Contacts - cc0
			n := float64(hi - lo)
			r.c.Compute(n*r.linkCost + float64(cc)*r.contactCost + 2*n*r.updCost)
		}
		f1 := r.clock()
		r.forceTime += f1 - f0
		r.span("force", f0, f1)
		if !inFlight {
			continue
		}
		r.span("overlap", f0, f1)
		inFlight = dm.FinishRefreshDim()
		w1 := r.clock()
		r.commTime += w1 - f1
		r.span("comm", f1, w1)
	}

	// Halo-link pass: only now are the halo positions current.
	h0 := r.clock()
	for _, b := range dm.Blocks {
		cc0 := dm.TC.Contacts
		epot += cfg.Spring.Accumulate(b.PS, b.List.HaloLinks(), b.NCore, plain, 0.5, &dm.TC)
		cHalo := dm.TC.Contacts - cc0
		nHalo := float64(len(b.List.Links) - b.List.NCore)
		r.c.Compute(nHalo*hw*r.linkCost + float64(cHalo)*hw*r.contactCost + 2*nHalo*hw*r.updCost)
		if cfg.Gravity != 0 {
			force.ApplyGravity(b.PS, b.NCore, cfg.D-1, cfg.Gravity)
		}
	}
	h1 := r.clock()
	r.forceTime += h1 - h0
	r.span("force", h0, h1)
	return epot
}

// forceTeam is the force pass of a hybrid rank's thread team, for
// per-block updaters and the fused updater alike. The first region —
// the fused loop over every block, or block 0's — is dispatched to the
// workers before the master drains the exchange; threads reaching the
// core/halo boundary of their chunk park on the gate until it opens at
// the communication clock. With nothing in flight the gate opens at
// once, at the region's start, and charges no stall. The remaining
// blocks' regions run with halos already in place.
func (r *rankSim) forceTeam(c0, c1 float64) float64 {
	cfg := r.cfg
	dm := r.dm
	plain := dm.PlainBox()

	shm.ZeroForcesAllBlocks(r.team, r.stores)
	r.syncClocks() // comm clock to the region join: the master zeroes too

	// The rebalancer can leave a rank briefly blockless; with per-block
	// updaters it then starts no region and just drains the exchange.
	r.gate.Reset()
	switch {
	case r.fused != nil:
		r.fused.AccumulateStart(r.team, cfg.Spring, plain, r.gate)
	case len(dm.Blocks) > 0:
		b := dm.Blocks[0]
		r.upds[0].AccumulateStart(r.team, cfg.Spring, b.PS, b.List.Links, b.List.NCore, b.NCore, plain, r.gate)
	}
	d0 := r.c.Clock()
	if cfg.Overlap {
		r.drainExchange()
	}
	d1 := r.c.Clock()
	r.gate.Open(d1)

	epot := 0.0
	switch {
	case r.fused != nil:
		epot = r.fused.AccumulateFinish(r.team, d1)
	case len(dm.Blocks) > 0:
		epot = r.upds[0].AccumulateFinish(r.team, d1)
		for i := 1; i < len(dm.Blocks); i++ {
			b := dm.Blocks[i]
			epot += r.upds[i].Accumulate(r.team, cfg.Spring, b.PS, b.List.Links, b.List.NCore, b.NCore, plain)
		}
	}
	r.applyGravityBlocks()
	r.syncClocks()
	fEnd := r.clock()

	// The post (c0-c1) and the exposed gate stall count as
	// communication, the rest of the force window as compute; the drain
	// (d0-d1) is marked as the overlap span — comm hidden under the
	// workers' core links.
	stall := r.gate.MaxStall()
	r.commTime += (c1 - c0) + stall
	r.forceTime += max(fEnd-c1-stall, 0)
	r.span("comm", c0, c1)
	r.span("force", c1, fEnd)
	if d1 > d0 {
		r.span("overlap", d0, d1)
	}
	return epot
}

// drainExchange completes the posted halo exchange on the master; if
// the drain panics the gate is aborted first so parked region threads
// unblock instead of deadlocking the join.
func (r *rankSim) drainExchange() {
	defer func() {
		if e := recover(); e != nil {
			r.gate.Abort()
			panic(e)
		}
	}()
	r.dm.FinishRefreshHalos()
}

// integrate advances every block's core particles and returns the
// rank's kinetic energy.
func (r *rankSim) integrate(box geom.Box) float64 {
	cfg := r.cfg
	dm := r.dm
	ekin := 0.0
	if r.team == nil {
		for _, b := range dm.Blocks {
			force.Integrate(b.PS, b.NCore, cfg.Dt, box, force.WrapDeferred, &dm.TC)
			r.c.Compute(float64(b.NCore) * r.partCost)
			ekin += force.KineticEnergy(b.PS, b.NCore)
		}
	} else {
		shm.IntegrateAllBlocks(r.team, r.stores, r.cores, cfg.Dt, box, force.WrapDeferred)
		for _, b := range dm.Blocks {
			ekin += force.KineticEnergy(b.PS, b.NCore)
		}
	}
	return ekin
}

func (r *rankSim) applyGravityBlocks() {
	if r.cfg.Gravity == 0 {
		return
	}
	for _, b := range r.dm.Blocks {
		force.ApplyGravity(b.PS, b.NCore, r.cfg.D-1, r.cfg.Gravity)
	}
}

// segment parameterises one supervised execution attempt of
// runDistributed: which layout to run on (possibly degraded after a
// rank loss), which measured iteration to resume from, the original
// timeline's warm-up length (so global fault-point step numbers stay
// stable across attempts), the rebuild-boundary snapshot to restore
// instead of the initial fill, and the collector that receives new
// snapshots. The zero value is a plain unsupervised run.
type segment struct {
	layout  *decomp.Layout
	start   int
	warmup0 int
	restore *epochState
	sink    *snapCollector
}

// RunDistributed executes an MPI or Hybrid run and returns the merged
// result (rank 0's phase attribution, max-over-ranks timing, summed
// counters). When cfg.Stop reports cancellation every rank leaves the
// step loop at the same agreed iteration and the partial Result
// (Iters = completed measured steps) is returned with ErrCanceled.
func RunDistributed(cfg Config, iters int) (*Result, error) {
	return runDistributed(cfg, iters, segment{warmup0: cfg.Warmup})
}

func runDistributed(cfg Config, iters int, seg segment) (*Result, error) {
	if cfg.Mode != MPI && cfg.Mode != Hybrid && cfg.Mode != MPIsm {
		return nil, fmt.Errorf("core: RunDistributed with mode %s (distributed modes: %s)", cfg.Mode, distributedNames())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := seg.layout
	if l == nil {
		var err error
		l, err = decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
		if err != nil {
			return nil, err
		}
	}
	var net mp.Network = mp.ZeroNetwork{}
	if cfg.Platform != nil {
		if cfg.Mode == Hybrid {
			net = cfg.Platform.NodeNetwork()
		} else {
			net = cfg.Platform.Network()
		}
	}
	measured := iters - seg.start
	if measured <= 0 {
		return nil, fmt.Errorf("core: segment start %d leaves no iterations of %d", seg.start, iters)
	}

	results := make([]*Result, cfg.P)
	// Written by rank 0 only, read after RunOpts returns.
	stopped := false
	var wall time.Duration
	comms, err := mp.RunOpts(cfg.P, mp.RunOptions{
		Net:         net,
		Faults:      cfg.Faults,
		Watchdog:    cfg.Watchdog,
		NoIntegrity: cfg.NoIntegrity,
	}, func(c *mp.Comm) {
		r := newRankSim(&cfg, c, l)
		defer r.close()
		switch {
		case seg.restore != nil:
			// Rollback: repopulate each owned block from the snapshot's
			// canonical (post-rebuild) core arrays. The rebuild below is
			// then an identity on the particle arrangement — positions
			// are already wrapped and home, stores already cell-ordered —
			// so the restored trajectory is bit-identical to an
			// uninterrupted run, whatever rank now owns the block.
			for _, b := range r.dm.Blocks {
				if snap := seg.restore.blocks[b.ID]; snap != nil {
					for i := range snap.ids {
						b.PS.Append(snap.pos[i], snap.vel[i], snap.ids[i])
					}
					b.NCore = len(snap.ids)
				}
			}
		case cfg.Init != nil:
			for i := 0; i < cfg.N; i++ {
				r.dm.Place(cfg.Init.Pos[i], cfg.Init.Vel[i], int32(i))
			}
		default:
			r.dm.FillClustered(cfg.N, cfg.Seed, cfg.InitVel, cfg.FillHeight)
		}
		r.rebuild()
		for i := 0; i < cfg.Warmup; i++ {
			c.FaultPoint(i)
			r.step()
		}
		c.Barrier()
		c.SetClock(0)
		if r.team != nil {
			r.team.SetClock(0)
		}
		r.forceTime, r.updateTime, r.commTime, r.collTime = 0, 0, 0, 0
		rebuilds0 := r.rebuilds
		start := time.Now()

		total := 0.0
		completed := 0
		rb := r.rebuilds
		stopReq, grace := false, 0
		var stopBuf [1]float64
		for i := seg.start; i < iters; i++ {
			c.FaultPoint(seg.warmup0 + i)
			total += r.step()
			completed++
			rebuilt := r.rebuilds > rb
			rb = r.rebuilds
			if cfg.OnStep != nil && c.Rank() == 0 {
				cfg.OnStep(i, r.epot, r.ekin)
			}
			if cfg.Probe != nil {
				pos, vel := gather(&cfg, c, r)
				if c.Rank() == 0 {
					cfg.Probe(i, pos, vel)
				}
			}
			if seg.sink != nil && rebuilt && i+1 < iters {
				// The step ended in a rebuild, so the store is in its
				// canonical arrangement — the only state a bit-exact
				// rollback can restart from. Offer it as the state at
				// the start of iteration i+1.
				seg.sink.offer(i+1, r.dm)
			}
			if cfg.Stop != nil {
				// Cooperative cancellation: rank 0 polls the hook,
				// latches the request, and honours it at the next
				// rebuild boundary (the same canonical state the
				// snapshot sink above waits for — what makes the
				// cancellation checkpoint resume bit-exactly) or after
				// stopGrace steps. The verdict is agreed through an
				// allreduce, so every rank breaks at the same iteration
				// and the result collectives and state gather below
				// stay aligned; rebuild votes are collective, so the
				// rebuild counter advances in lockstep across ranks.
				// The extra collective exists only when a Stop hook is
				// installed.
				stopBuf[0] = 0
				if c.Rank() == 0 {
					if !stopReq && cfg.Stop() {
						stopReq, grace = true, stopGrace
					}
					if stopReq {
						if rebuilt || grace <= 0 {
							stopBuf[0] = 1
						}
						grace--
					}
				}
				c.AllreduceInPlace(stopBuf[:], mp.Max)
				if stopBuf[0] != 0 {
					if c.Rank() == 0 {
						stopped = true
					}
					break
				}
			}
		}
		if c.Rank() == 0 {
			wall = time.Since(start)
		}
		// The full virtual clock since the post-warmup reset covers the
		// timed phases plus rebuilds, migration, and repartition; read
		// it before the result collectives below advance it further.
		elapsedAll := r.clock()
		meas := float64(completed)
		if completed == 0 {
			meas = 1
		}
		perIter := total / meas
		// Timing is the slowest rank's (the paper's t is the global
		// iteration time).
		perIter = c.AllreduceScalar(perIter, mp.Max)
		totalIter := c.AllreduceScalar(elapsedAll, mp.Max) / meas

		nlinks := c.AllreduceScalar(float64(r.dm.NumLinks()), mp.Sum)

		// Per-rank load imbalance of the measured window: compute time
		// (force + update) only, since a waiting rank's comm time is
		// exactly the imbalance showing up elsewhere.
		load := r.forceTime + r.updateTime
		maxLoad := c.AllreduceScalar(load, mp.Max)
		meanLoad := c.AllreduceScalar(load, mp.Sum) / float64(cfg.P)
		imb := 1.0
		if meanLoad > 0 {
			imb = maxLoad / meanLoad
		}

		res := &Result{
			Mode: cfg.Mode,
			// Iters counts the measured iterations completed since the
			// run's start (segment offset included), so a canceled run
			// reports exactly the boundary a resume must continue from.
			Iters:      seg.start + completed,
			PerIter:    perIter,
			TotalTime:  totalIter,
			Epot:       r.epot,
			Ekin:       r.ekin,
			NLinks:     int64(nlinks),
			Rebuilds:   r.rebuilds - rebuilds0,
			ForceTime:  r.forceTime / meas,
			UpdateTime: r.updateTime / meas,
			CommTime:   r.commTime / meas,
			CollTime:   r.collTime / meas,

			MeanLinkDist: r.meanDist,
			Imbalance:    imb,
		}
		res.TC = r.dm.TC
		if r.team != nil {
			res.TC.Add(&r.team.TC)
			res.AtomicFraction = r.team.TC.AtomicFraction()
		}
		if cfg.Rebalance == RebalanceORB && c.Rank() == 0 {
			res.Tree = r.dm.ORBTreeSnapshot()
		}
		if cfg.CollectState {
			res.Pos, res.Vel = gather(&cfg, c, r)
		}
		results[c.Rank()] = res
	})
	if err != nil {
		return nil, err
	}

	out := results[0]
	out.Wall = wall
	var tc trace.Counters
	var taken, avoided int64
	for i, res := range results {
		tc.Add(&res.TC)
		taken += res.TC.AtomicsTaken
		avoided += res.TC.AtomicsAvoided
		tc.Add(&comms[i].TC)
	}
	out.TC = tc
	if taken+avoided > 0 {
		out.AtomicFraction = float64(taken) / float64(taken+avoided)
	}
	if stopped {
		return out, ErrCanceled
	}
	return out, nil
}

// stateGatherTag is far above the tag space the exchange phases use.
const stateGatherTag = 1 << 28

// gather collects every rank's core particles onto rank 0, indexed by
// persistent particle ID, wrapping deferred periodic coordinates back
// into the box. All ranks must call it; only rank 0 receives the
// state (the others return nil slices).
func gather(cfg *Config, c *mp.Comm, r *rankSim) (pos, vel []geom.Vec) {
	box := cfg.Box()
	var f []float64
	var ids []int32
	for _, b := range r.dm.Blocks {
		for i := 0; i < b.NCore; i++ {
			p, _ := box.Wrap(b.PS.PosAt(i))
			v := b.PS.VelAt(i)
			for k := 0; k < cfg.D; k++ {
				f = append(f, p[k])
			}
			for k := 0; k < cfg.D; k++ {
				f = append(f, v[k])
			}
			ids = append(ids, b.PS.ID[i])
		}
	}
	if c.Rank() != 0 {
		c.Send(0, stateGatherTag, f, ids)
		return nil, nil
	}
	pos = make([]geom.Vec, cfg.N)
	vel = make([]geom.Vec, cfg.N)
	fill := func(f []float64, ids []int32) {
		per := 2 * cfg.D
		for i, id := range ids {
			for k := 0; k < cfg.D; k++ {
				pos[id][k] = f[per*i+k]
				vel[id][k] = f[per*i+cfg.D+k]
			}
		}
	}
	fill(f, ids)
	for src := 1; src < cfg.P; src++ {
		rf, rids := c.Recv(src, stateGatherTag)
		fill(rf, rids)
	}
	return pos, vel
}

// Run dispatches on the configured mode.
func Run(cfg Config, iters int) (*Result, error) {
	switch cfg.Mode {
	case Serial, OpenMP:
		return RunShared(cfg, iters)
	case MPI, Hybrid, MPIsm:
		return RunDistributed(cfg, iters)
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
}
