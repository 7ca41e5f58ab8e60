package main

import (
	"time"

	"hybriddem/internal/cell"
	"hybriddem/internal/core"
	"hybriddem/internal/decomp"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/mp"
	"hybriddem/internal/particle"
	"hybriddem/internal/shm"
	"hybriddem/internal/trace"
)

// layerResult holds what the layer suites time by calling each layer's
// public functions on the workload's own input and link lists. Every
// time is one repetition over all of the lists involved, in ms.
type layerResult struct {
	forceAcc, forceInt []float64 // single-threaded force.Spring.Accumulate / Integrate+KineticEnergy
	shmAcc, shmPrep    []float64 // shm.Updater.Accumulate / Prepare at T=2
	cellBuild          []float64 // bin, reorder and link build
	forceTC            trace.Counters
	links, pairChecks  int64
	taken, avoided     int64     // shm protected / proven-private updates, one repetition
	halo, rebuild      []float64 // slowest rank's RefreshHalos / Rebuild
	haloBytes          float64   // message bytes of one refresh, all ranks
}

// stepTeamT is the thread count every shm metric is measured at.
const stepTeamT = 2

// sharedSuite times the layers of a single-address-space layout
// (serial or openmp): one store, one global link list, and the
// workload's own step assembled from the same calls core's shared
// step makes, each in a span under a "replica.step" root.
func sharedSuite(cfg core.Config, reps int, tr *tracer, lr *layerResult) {
	box := cfg.Box()
	rc := cfg.RC()
	ps := particle.New(cfg.D, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ps.Append(cfg.Init.Pos[i], cfg.Init.Vel[i], int32(i))
	}
	grid := cell.NewGrid(cfg.D, geom.Vec{}, box.Len, rc, box.BC == geom.Periodic)
	var team *shm.Team
	if cfg.T > 1 {
		team = shm.NewTeam(cfg.T, shm.Costs{})
		defer team.Close()
	}
	var buf cell.ListBuffer
	var ref geom.Coords
	var list *cell.List
	build := func(tc *trace.Counters) {
		bin := func() {
			if team != nil {
				grid.BinParallel(&ps.Pos, cfg.N, shm.TeamPool{Team: team}, tc)
			} else {
				grid.Bin(&ps.Pos, cfg.N, tc)
			}
		}
		bin()
		if cfg.Reorder {
			ps.Permute(grid.Order())
			bin()
		}
		if team != nil {
			list = grid.BuildLinksParallel(&ps.Pos, cfg.N, cfg.N, rc*rc, box, shm.TeamPool{Team: team}, tc)
		} else {
			list = grid.BuildLinksInto(&buf, &ps.Pos, cfg.N, cfg.N, rc*rc, box, tc)
		}
		for k := 0; k < cfg.D; k++ {
			ref[k] = append(ref[k][:0], ps.Pos[k][:cfg.N]...)
		}
	}
	var tc trace.Counters
	build(&tc)
	lr.links, lr.pairChecks = int64(len(list.Links)), tc.PairChecks
	suite := tr.begin("suite.shared", 0, -1)
	for i := 0; i < reps; i++ {
		lr.cellBuild = append(lr.cellBuild, timed(tr, "cell.build", 0, suite, func() { build(nil) }))
	}

	// The workload's own step, for the accounting.
	var upd *shm.Updater
	if team != nil {
		upd = shm.NewUpdater(cfg.Method)
		upd.Prepare(list.Links, ps.Len(), cfg.N, cfg.T)
	}
	for i := 0; i < replicaSteps; i++ {
		root := tr.begin("replica.step", 0, -1)
		var epot float64
		if team != nil {
			tr.do("shm.zero", 0, root, func() { shm.ZeroForcesParallel(team, ps, cfg.N) })
			tr.do("shm.accumulate", 0, root, func() {
				epot = upd.Accumulate(team, cfg.Spring, ps, list.Links, len(list.Links), cfg.N, box)
			})
			tr.do("shm.integrate", 0, root, func() { shm.IntegrateParallel(team, ps, cfg.N, cfg.Dt, box, force.WrapGlobal) })
		} else {
			tr.do("force.zero", 0, root, func() { ps.ZeroForces() })
			tr.do("force.accumulate", 0, root, func() { epot = cfg.Spring.Accumulate(ps, list.Links, cfg.N, box, 1, nil) })
			tr.do("force.integrate", 0, root, func() { force.Integrate(ps, cfg.N, cfg.Dt, box, force.WrapGlobal, nil) })
		}
		tr.do("force.kinetic", 0, root, func() { _ = epot + force.KineticEnergy(ps, cfg.N) })
		tr.do("cell.check", 0, root, func() { ps.MaxDisp2(&ref, cfg.N, box) })
		tr.end(root)
	}

	// Single-threaded baselines and the T=2 shm layer on the same list.
	for i := 0; i < reps; i++ {
		ps.ZeroForces()
		var c trace.Counters
		lr.forceAcc = append(lr.forceAcc, timed(tr, "force.accumulate", 0, suite, func() {
			cfg.Spring.Accumulate(ps, list.Links, cfg.N, box, 1, &c)
		}))
		lr.forceTC = c
		lr.forceInt = append(lr.forceInt, timed(tr, "force.integrate", 0, suite, func() {
			force.Integrate(ps, cfg.N, cfg.Dt, box, force.WrapGlobal, nil)
			force.KineticEnergy(ps, cfg.N)
		}))
	}
	team2 := team
	if cfg.T != stepTeamT {
		team2 = shm.NewTeam(stepTeamT, shm.Costs{})
		defer team2.Close()
	}
	upd2 := shm.NewUpdater(cfg.Method)
	for i := 0; i < reps; i++ {
		lr.shmPrep = append(lr.shmPrep, timed(tr, "shm.prepare", 0, suite, func() {
			upd2.Prepare(list.Links, ps.Len(), cfg.N, stepTeamT)
		}))
	}
	for i := 0; i < reps; i++ {
		shm.ZeroForcesParallel(team2, ps, cfg.N)
		t0, a0 := team2.TC.AtomicsTaken, team2.TC.AtomicsAvoided
		lr.shmAcc = append(lr.shmAcc, timed(tr, "shm.accumulate", 0, suite, func() {
			upd2.Accumulate(team2, cfg.Spring, ps, list.Links, len(list.Links), cfg.N, box)
		}))
		lr.taken, lr.avoided = team2.TC.AtomicsTaken-t0, team2.TC.AtomicsAvoided-a0
	}
	tr.end(suite)
}

// timed runs fn in a span and returns its duration in ms.
func timed(tr *tracer, name string, tid, parent int, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.add(name, tid, parent, t0, t1)
	return ms(t1.Sub(t0))
}

// decompSuite times the distributed layers on the workload's input in
// its own (P, B/P) layout: Domain.Rebuild and RefreshHalos on every
// rank. With full set it also runs the workload's own distributed step
// from the same calls core's rank step makes (replica.step spans on
// each rank's track) and, on rank 0's blocks, the single-threaded
// force baselines, the cell build and the T=2 shm layer.
func decompSuite(cfg core.Config, reps int, full bool, tr *tracer, lr *layerResult) error {
	l, err := decomp.NewLayout(cfg.Box(), cfg.RC(), cfg.P, cfg.BlocksPerProc)
	if err != nil {
		return err
	}
	box := cfg.Box()
	_, err = mp.RunOpts(cfg.P, mp.RunOptions{}, func(c *mp.Comm) {
		rank := c.Rank()
		dm := decomp.NewDomain(l, c, false)
		for i := 0; i < cfg.N; i++ {
			dm.Place(cfg.Init.Pos[i], cfg.Init.Vel[i], int32(i))
		}
		dm.Rebuild(cfg.Reorder)
		suite := tr.begin("suite.decomp", rank, -1)
		slowest := func(name string, fn func()) float64 {
			c.Barrier()
			return c.AllreduceScalar(timed(tr, name, rank, suite, fn), mp.Max)
		}
		for i := 0; i < reps; i++ {
			rb := slowest("decomp.rebuild", func() { dm.Rebuild(cfg.Reorder) })
			b0 := c.TC.BytesSent
			h := slowest("decomp.halo", dm.RefreshHalos)
			bytes := c.AllreduceScalar(float64(c.TC.BytesSent-b0), mp.Sum)
			if rank == 0 {
				lr.rebuild = append(lr.rebuild, rb)
				lr.halo = append(lr.halo, h)
				lr.haloBytes = bytes
			}
		}
		tr.end(suite)
		if full {
			decompSteps(cfg, c, dm, box, replicaSteps, tr)
			if rank == 0 {
				blockBaselines(cfg, dm, reps, tr, lr)
			}
			c.Barrier()
		}
	})
	return err
}

// decompSteps runs the workload's distributed step the way core's
// default split-phase step does: post the halo exchange, run force work
// that needs no halo data while draining it (the first block's region
// on the thread team in hybrid mode; the core links in D stages between
// per-dimension drains otherwise), then the rest of the force pass, the
// update, and the energy allreduce overlapped with the rebuild vote.
// Spans are on the rank's own track, so the master's spans cover its
// step even where team threads compute under the drain.
func decompSteps(cfg core.Config, c *mp.Comm, dm *decomp.Domain, box geom.Box, reps int, tr *tracer) {
	rank := c.Rank()
	plain := dm.PlainBox()
	var team *shm.Team
	var upds []*shm.Updater
	var stores []*shm.BlockStore
	var cores []int
	gate := shm.NewHaloGate()
	if cfg.Mode == core.Hybrid {
		team = shm.NewTeam(cfg.T, shm.Costs{})
		defer team.Close()
		for _, b := range dm.Blocks {
			u := shm.NewUpdater(cfg.Method)
			u.Prepare(b.List.Links, b.PS.Len(), b.NCore, cfg.T)
			upds = append(upds, u)
			stores = append(stores, &shm.BlockStore{PS: b.PS, NCore: b.NCore})
			cores = append(cores, b.NCore)
		}
	}
	energy := make([]float64, 2)
	vote := make([]float64, 1)
	for i := 0; i < reps; i++ {
		c.Barrier()
		root := tr.begin("replica.step", rank, -1)
		tr.do("decomp.halo", rank, root, dm.BeginRefreshHalos)
		epot, ekin := 0.0, 0.0
		if team != nil {
			tr.do("shm.zero", rank, root, func() { shm.ZeroForcesAllBlocks(team, stores) })
			gate.Reset()
			b0 := dm.Blocks[0]
			tr.do("shm.accumulate", rank, root, func() {
				upds[0].AccumulateStart(team, cfg.Spring, b0.PS, b0.List.Links, b0.List.NCore, b0.NCore, plain, gate)
			})
			tr.do("decomp.halo", rank, root, dm.FinishRefreshHalos)
			gate.Open(0)
			tr.do("shm.accumulate", rank, root, func() {
				epot = upds[0].AccumulateFinish(team, 0)
				for j := 1; j < len(dm.Blocks); j++ {
					b := dm.Blocks[j]
					epot += upds[j].Accumulate(team, cfg.Spring, b.PS, b.List.Links, b.List.NCore, b.NCore, plain)
				}
			})
			tr.do("shm.integrate", rank, root, func() {
				shm.IntegrateAllBlocks(team, stores, cores, cfg.Dt, box, force.WrapDeferred)
			})
		} else {
			tr.do("force.zero", rank, root, func() {
				for _, b := range dm.Blocks {
					b.PS.ZeroForces()
				}
			})
			for st := 0; st < cfg.D; st++ {
				tr.do("force.accumulate", rank, root, func() {
					for _, b := range dm.Blocks {
						links := b.List.CoreLinks()
						lo, hi := len(links)*st/cfg.D, len(links)*(st+1)/cfg.D
						epot += cfg.Spring.Accumulate(b.PS, links[lo:hi], b.NCore, plain, 1, &dm.TC)
					}
				})
				tr.do("decomp.halo", rank, root, func() { dm.FinishRefreshDim() })
			}
			tr.do("force.accumulate", rank, root, func() {
				for _, b := range dm.Blocks {
					epot += cfg.Spring.Accumulate(b.PS, b.List.HaloLinks(), b.NCore, plain, 0.5, &dm.TC)
				}
			})
			tr.do("force.integrate", rank, root, func() {
				for _, b := range dm.Blocks {
					force.Integrate(b.PS, b.NCore, cfg.Dt, box, force.WrapDeferred, &dm.TC)
				}
			})
		}
		tr.do("force.kinetic", rank, root, func() {
			for _, b := range dm.Blocks {
				ekin += force.KineticEnergy(b.PS, b.NCore)
			}
		})
		var eReq *mp.CollRequest
		tr.do("mp.allreduce", rank, root, func() {
			energy[0], energy[1] = epot, ekin
			eReq = c.IAllreduceInPlace(energy, mp.Sum)
		})
		tr.do("decomp.check", rank, root, func() { vote[0] = dm.MaxCoreDisp2() })
		tr.do("mp.vote", rank, root, func() {
			vReq := c.IAllreduceInPlace(vote, mp.Max)
			eReq.Wait()
			vReq.Wait()
		})
		tr.end(root)
	}
}

// blockBaselines times, over one rank's blocks, the cell build on
// copies of each block, the single-threaded force baselines and the
// shm layer at T=2.
func blockBaselines(cfg core.Config, dm *decomp.Domain, reps int, tr *tracer, lr *layerResult) {
	plain := dm.PlainBox()
	box := cfg.Box()
	rc := cfg.RC()
	suite := tr.begin("suite.blocks", 0, -1)
	defer tr.end(suite)

	type copyBlock struct {
		ps    *particle.Store
		nCore int
		grid  *cell.Grid
		buf   cell.ListBuffer
	}
	copies := make([]*copyBlock, len(dm.Blocks))
	for j, b := range dm.Blocks {
		copies[j] = &copyBlock{ps: b.PS.Clone(), nCore: b.NCore,
			grid: cell.NewGrid(cfg.D, b.ExtOrigin, b.ExtSpan, rc, false)}
	}
	for i := 0; i < reps; i++ {
		var tc trace.Counters
		links := 0
		lr.cellBuild = append(lr.cellBuild, timed(tr, "cell.build", 0, suite, func() {
			for _, cb := range copies {
				if cfg.Reorder && cb.nCore > 0 {
					cb.grid.Bin(&cb.ps.Pos, cb.nCore, &tc)
					cb.ps.Permute(cb.grid.Order())
				}
				n := cb.ps.Len()
				cb.grid.Bin(&cb.ps.Pos, n, &tc)
				links += len(cb.grid.BuildLinksInto(&cb.buf, &cb.ps.Pos, n, cb.nCore, rc*rc, plain, &tc).Links)
			}
		}))
		lr.links, lr.pairChecks = int64(links), tc.PairChecks
	}

	for i := 0; i < reps; i++ {
		for _, b := range dm.Blocks {
			b.PS.ZeroForces()
		}
		var c trace.Counters
		lr.forceAcc = append(lr.forceAcc, timed(tr, "force.accumulate", 0, suite, func() {
			for _, b := range dm.Blocks {
				cfg.Spring.Accumulate(b.PS, b.List.CoreLinks(), b.NCore, plain, 1, &c)
				cfg.Spring.Accumulate(b.PS, b.List.HaloLinks(), b.NCore, plain, 0.5, &c)
			}
		}))
		lr.forceTC = c
		lr.forceInt = append(lr.forceInt, timed(tr, "force.integrate", 0, suite, func() {
			for _, b := range dm.Blocks {
				force.Integrate(b.PS, b.NCore, cfg.Dt, box, force.WrapDeferred, nil)
				force.KineticEnergy(b.PS, b.NCore)
			}
		}))
	}

	team := shm.NewTeam(stepTeamT, shm.Costs{})
	defer team.Close()
	upds := make([]*shm.Updater, len(dm.Blocks))
	stores := make([]*shm.BlockStore, len(dm.Blocks))
	for j, b := range dm.Blocks {
		upds[j] = shm.NewUpdater(cfg.Method)
		stores[j] = &shm.BlockStore{PS: b.PS, NCore: b.NCore}
	}
	for i := 0; i < reps; i++ {
		lr.shmPrep = append(lr.shmPrep, timed(tr, "shm.prepare", 0, suite, func() {
			for j, b := range dm.Blocks {
				upds[j].Prepare(b.List.Links, b.PS.Len(), b.NCore, stepTeamT)
			}
		}))
	}
	for i := 0; i < reps; i++ {
		shm.ZeroForcesAllBlocks(team, stores)
		t0, a0 := team.TC.AtomicsTaken, team.TC.AtomicsAvoided
		lr.shmAcc = append(lr.shmAcc, timed(tr, "shm.accumulate", 0, suite, func() {
			for j, b := range dm.Blocks {
				upds[j].Accumulate(team, cfg.Spring, b.PS, b.List.Links, b.List.NCore, b.NCore, plain)
			}
		}))
		lr.taken, lr.avoided = team.TC.AtomicsTaken-t0, team.TC.AtomicsAvoided-a0
	}
}
