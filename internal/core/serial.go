package core

import (
	"fmt"
	"math/rand"
	"time"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/particle"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// sharedSim is the single-address-space simulation backing both the
// Serial and OpenMP modes: one store, one cell grid over the whole
// (possibly periodic) box, no halos.
type sharedSim struct {
	cfg     Config
	box     geom.Box
	ps      *particle.Store
	grid    *cell.Grid
	list    *cell.List
	listBuf cell.ListBuffer // serial-path link storage, reused across rebuilds
	ref     geom.Coords     // position snapshot at last rebuild, reused

	team *shm.Team // nil in Serial mode
	upd  *shm.Updater

	clock    float64 // serial-mode virtual clock
	tc       trace.Counters
	rebuilds int
	meanDist float64

	linkCost, contactCost, updCost, partCost float64

	epot, ekin float64
	iter       int

	forceTime, updateTime float64
}

// span records a phase interval on the configured timeline (rank 0).
func (s *sharedSim) span(phase string, t0, t1 float64) {
	if tl := s.cfg.Timeline; tl != nil {
		tl.Add(0, s.iter, phase, t0, t1)
	}
}

// newSharedSim builds and initialises the simulation, including the
// first link-list construction.
func newSharedSim(cfg Config) (*sharedSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &sharedSim{cfg: cfg, box: cfg.Box()}
	s.ps = particle.New(cfg.D, cfg.N)
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch {
	case cfg.Init != nil:
		for i := 0; i < cfg.N; i++ {
			s.ps.Append(cfg.Init.Pos[i], cfg.Init.Vel[i], int32(i))
		}
	case cfg.FillHeight > 0 && cfg.FillHeight < 1:
		particle.FillClustered(s.ps, cfg.N, s.box, cfg.FillHeight, cfg.InitVel, 0, rng)
	case cfg.InitVel > 0:
		particle.FillUniformVel(s.ps, cfg.N, s.box, cfg.InitVel, 0, rng)
	default:
		particle.FillUniform(s.ps, cfg.N, s.box, 0, rng)
	}
	if cfg.Mode == OpenMP {
		s.team = shm.NewTeam(cfg.T, shm.Costs{})
		s.upd = shm.NewUpdater(cfg.Method)
	}
	// The whole-box grid geometry never changes, so one grid (and its
	// reused binning scratch) serves every rebuild.
	wrap := s.box.BC == geom.Periodic
	s.grid = cell.NewGrid(cfg.D, geom.Vec{}, s.box.Len, cfg.RC(), wrap)
	s.rebuild()
	return s, nil
}

// close releases the thread team's parked workers (no-op in Serial
// mode).
func (s *sharedSim) close() {
	if s.team != nil {
		s.team.Close()
	}
}

// listMeanDist returns the mean |i-j| across a link list, the
// locality metric the cache model consumes.
func listMeanDist(links []cell.Link) float64 {
	if len(links) == 0 {
		return 0
	}
	var sum int64
	for _, l := range links {
		d := int64(l.I) - int64(l.J)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(links))
}

// rebuild reconstructs the cell binning and link list, applying the
// optional cache reordering, and rederives the platform costs for the
// new locality.
func (s *sharedSim) rebuild() {
	cfg := &s.cfg
	rc := cfg.RC()
	// In OpenMP mode the list generation itself runs thread-parallel,
	// as in the paper's Section 7 (binning over particles, link
	// generation over cells); the results are bit-identical to the
	// serial path.
	bin := func() {
		if s.team != nil {
			s.grid.BinParallel(&s.ps.Pos, cfg.N, shm.TeamPool{Team: s.team}, &s.tc)
		} else {
			s.grid.Bin(&s.ps.Pos, cfg.N, &s.tc)
		}
	}
	bin()
	if cfg.Reorder {
		s.ps.Permute(s.grid.Order())
		s.tc.ReorderMoves += int64(cfg.N)
		bin()
	}
	if s.team != nil {
		s.list = s.grid.BuildLinksParallel(&s.ps.Pos, cfg.N, cfg.N, rc*rc, s.box, shm.TeamPool{Team: s.team}, &s.tc)
	} else {
		s.list = s.grid.BuildLinksInto(&s.listBuf, &s.ps.Pos, cfg.N, cfg.N, rc*rc, s.box, &s.tc)
	}
	for k := 0; k < cfg.D; k++ {
		s.ref[k] = append(s.ref[k][:0], s.ps.Pos[k][:cfg.N]...)
	}
	s.meanDist = listMeanDist(s.list.Links)
	s.rebuilds++

	if pf := cfg.Platform; pf != nil {
		cp := machine.CostParams{D: cfg.D, MeanLinkDist: cfg.modelDist(s.meanDist), ActivePerNode: cfg.T}
		ws := cfg.workScale()
		// Particle-array traffic is per particle per pass; amortise it
		// over the links so the kernels can charge a single per-link
		// figure.
		memPerLink := 0.0
		if n := len(s.list.Links); n > 0 {
			memPerLink = pf.ForceMemCost(cp) * float64(cfg.N) / float64(n)
		}
		s.linkCost = (pf.LinkCost(cp) + memPerLink) * ws
		s.contactCost = pf.ContactPairCost(cp) * ws
		s.updCost = pf.UpdateCost(cp) * ws
		s.partCost = pf.ParticleCost(cp) * ws
		if s.team != nil {
			costs := pf.ShmCosts(cfg.T, cp)
			costs.PerLink += memPerLink
			s.team.SetCosts(costs.ScaleWork(ws, cfg.atomicScale()))
		}
	}
	if s.upd != nil {
		s.upd.Prepare(s.list.Links, s.ps.Len(), cfg.N, cfg.T)
	}
}

// nowClock returns the virtual clock (team clock when threaded).
func (s *sharedSim) nowClock() float64 {
	if s.team != nil {
		return s.team.Clock()
	}
	return s.clock
}

// step advances the simulation by one iteration: force over the link
// list, then position update, then the list-validity check with a
// rebuild when the skin is exhausted. It returns the modelled seconds
// attributed to the timed (force+update) portion.
func (s *sharedSim) step() float64 {
	cfg := &s.cfg
	s.iter++
	t0 := s.nowClock()

	// Force phase.
	f0 := s.nowClock()
	if s.team == nil {
		s.ps.ZeroForces()
		c0 := s.tc.Contacts
		s.epot = cfg.Spring.Accumulate(s.ps, s.list.Links, cfg.N, s.box, 1, &s.tc)
		n := int64(len(s.list.Links))
		s.clock += float64(n)*s.linkCost +
			float64(s.tc.Contacts-c0)*s.contactCost +
			2*float64(n)*s.updCost
	} else {
		shm.ZeroForcesParallel(s.team, s.ps, cfg.N)
		s.epot = s.upd.Accumulate(s.team, cfg.Spring, s.ps, s.list.Links, len(s.list.Links), cfg.N, s.box)
	}
	if cfg.Gravity != 0 {
		force.ApplyGravity(s.ps, cfg.N, cfg.D-1, cfg.Gravity)
	}
	s.forceTime += s.nowClock() - f0
	s.span("force", f0, s.nowClock())

	// Update phase.
	u0 := s.nowClock()
	if s.team == nil {
		force.Integrate(s.ps, cfg.N, cfg.Dt, s.box, force.WrapGlobal, &s.tc)
		s.clock += float64(cfg.N) * s.partCost
	} else {
		shm.IntegrateParallel(s.team, s.ps, cfg.N, cfg.Dt, s.box, force.WrapGlobal)
	}
	s.ekin = force.KineticEnergy(s.ps, cfg.N)
	s.updateTime += s.nowClock() - u0
	s.span("update", u0, s.nowClock())

	elapsed := s.nowClock() - t0

	// List validity (outside the timed window, like the paper's
	// excluded link generation).
	skin := cfg.Skin()
	if s.ps.MaxDisp2(&s.ref, cfg.N, s.box) >= skin*skin {
		b0 := s.nowClock()
		s.rebuild()
		s.span("rebuild", b0, s.nowClock())
	}
	return elapsed
}

// collect returns the current state indexed by particle ID.
func (s *sharedSim) collect() (pos, vel []geom.Vec) {
	n := s.cfg.N
	pos = make([]geom.Vec, n)
	vel = make([]geom.Vec, n)
	for i := 0; i < n; i++ {
		pos[s.ps.ID[i]] = s.ps.PosAt(i)
		vel[s.ps.ID[i]] = s.ps.VelAt(i)
	}
	return pos, vel
}

// RunShared executes a Serial or OpenMP run for the configured warmup
// plus iters measured iterations. When cfg.Stop reports cancellation
// the partial Result (Iters = completed steps) is returned together
// with ErrCanceled.
func RunShared(cfg Config, iters int) (*Result, error) {
	if cfg.Mode != Serial && cfg.Mode != OpenMP {
		return nil, fmt.Errorf("core: RunShared with mode %s (shared modes: %s)", cfg.Mode, sharedNames())
	}
	s, err := newSharedSim(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	for i := 0; i < cfg.Warmup; i++ {
		s.step()
	}
	// Reset measurement state after warmup.
	s.forceTime, s.updateTime = 0, 0
	rebuilds0 := s.rebuilds
	total := 0.0
	completed := 0
	stopped := false
	clk0 := s.nowClock()
	start := time.Now()
	stopReq, grace := false, 0
	for i := 0; i < iters; i++ {
		rb := s.rebuilds
		total += s.step()
		completed++
		if cfg.Probe != nil {
			p, v := s.collect()
			cfg.Probe(i, p, v)
		}
		if cfg.OnStep != nil {
			cfg.OnStep(i, s.epot, s.ekin)
		}
		if cfg.Stop != nil {
			if !stopReq && cfg.Stop() {
				stopReq, grace = true, stopGrace
			}
			// A latched request is honoured at the next rebuild
			// boundary — the canonical state a resumed run reproduces
			// bit-exactly — or after stopGrace steps if none comes.
			if stopReq {
				if s.rebuilds > rb || grace <= 0 {
					stopped = true
					break
				}
				grace--
			}
		}
	}
	wall := time.Since(start)
	meas := float64(completed)
	if completed == 0 {
		meas = 1
	}

	res := &Result{
		Mode:      cfg.Mode,
		Iters:     completed,
		PerIter:   total / meas,
		TotalTime: (s.nowClock() - clk0) / meas,
		Wall:      wall,
		Epot:      s.epot,
		Ekin:      s.ekin,
		NLinks:    int64(len(s.list.Links)),
		Rebuilds:  s.rebuilds - rebuilds0,

		ForceTime:  s.forceTime / meas,
		UpdateTime: s.updateTime / meas,

		MeanLinkDist: s.meanDist,
	}
	res.TC = s.tc
	if s.team != nil {
		res.TC.Add(&s.team.TC)
		res.AtomicFraction = s.team.TC.AtomicFraction()
	}
	if cfg.CollectState {
		res.Pos, res.Vel = s.collect()
	}
	if stopped {
		return res, ErrCanceled
	}
	return res, nil
}
