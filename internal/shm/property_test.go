package shm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// ownerMethods are the methods that run the owner-write loop and so
// must match the serial kernel bit for bit.
var ownerMethods = []Method{Atomic, SelectedAtomic, Unprotected}

// propSystem is one random force-loop input: n core particles plus
// halo copies, a link list with its core/halo split, and a force law.
type propSystem struct {
	name string
	ps   *particle.Store
	list *cell.List
	box  geom.Box
	sp   force.Spring
	n    int
}

// randomSystem draws a dense random system. Dense enough that most
// particles touch and the chunk boundaries of a 4-thread team share
// particles, so the deferred-update logs are exercised.
func randomSystem(rng *rand.Rand, d int, bc geom.Boundary, hertz, damped, bonded bool) propSystem {
	n := 150 + rng.Intn(150)
	if d == 3 {
		n += 250
	}
	halo := rng.Intn(40)
	box := geom.NewBox(d, 1.0, bc)
	ps := particle.New(d, n+halo)
	particle.FillUniformVel(ps, n+halo, box, 0.3, 0, rng)
	const rc = 0.13
	sp := force.Spring{Diameter: 0.09, K: 40, Hertz: hertz}
	if d == 3 {
		sp.Diameter = 0.12
	}
	if damped {
		sp.Damp = 0.5
	}
	g := cell.NewGrid(d, geom.Vec{}, box.Len, rc, bc == geom.Periodic)
	g.Bin(&ps.Pos, n+halo, nil)
	list := g.BuildLinks(&ps.Pos, n+halo, n, rc*rc, box, nil)
	if bonded {
		// Bond every third link at a rest length near its current
		// separation, so bonded pairs both attract and repel.
		bt := force.NewBondTable(n+halo, 8, 60, 0.3)
		for k, l := range list.Links {
			if k%3 != 0 {
				continue
			}
			r := math.Sqrt(box.Dist2At(&ps.Pos, l.I, l.J))
			_ = bt.Add(ps.ID[l.I], ps.ID[l.J], r*(0.9+0.2*rng.Float64()))
		}
		sp.Bonds = bt
	}
	name := fmt.Sprintf("d%d/%v/hertz=%v/damped=%v/bonded=%v/n=%d+%d", d, bc, hertz, damped, bonded, n, halo)
	return propSystem{name: name, ps: ps, list: list, box: box, sp: sp, n: n}
}

// serialForces runs the serial kernel over the system's core links
// then its halo links, as the distributed drivers do per block.
func (s propSystem) serialForces() (*particle.Store, float64) {
	ref := s.ps.Clone()
	ref.ZeroForces()
	e := s.sp.Accumulate(ref, s.list.CoreLinks(), s.n, s.box, 1, nil)
	e += s.sp.Accumulate(ref, s.list.HaloLinks(), s.n, s.box, 0.5, nil)
	return ref, e
}

// assertForcesBitEqual fails unless every force component of got has
// the bit pattern of want's.
func assertForcesBitEqual(t *testing.T, label string, want, got *particle.Store, n int) {
	t.Helper()
	for k := 0; k < want.D; k++ {
		for i := 0; i < n; i++ {
			if math.Float64bits(want.Frc[k][i]) != math.Float64bits(got.Frc[k][i]) {
				t.Fatalf("%s: force[%d] of particle %d = %x, serial kernel gives %x",
					label, k, i, math.Float64bits(got.Frc[k][i]), math.Float64bits(want.Frc[k][i]))
			}
		}
	}
}

// runUpdater runs one updater shape over a fresh force array and
// returns it with the energy. gated runs the split-phase path with the
// halo gate opened while the workers run.
func runUpdater(s propSystem, m Method, T int, gated bool) (*particle.Store, float64) {
	tm := NewTeam(T, Costs{})
	defer tm.Close()
	u := NewUpdater(m)
	u.Prepare(s.list.Links, s.ps.Len(), s.n, T)
	work := s.ps.Clone()
	work.ZeroForces()
	if !gated {
		return work, u.Accumulate(tm, s.sp, work, s.list.Links, s.list.NCore, s.n, s.box)
	}
	gate := NewHaloGate()
	u.AccumulateStart(tm, s.sp, work, s.list.Links, s.list.NCore, s.n, s.box, gate)
	gate.Open(0)
	return work, u.AccumulateFinish(tm, 0)
}

// runFused runs the fused updater over two pieces: the system itself
// and a second, independently drawn store of the same shape.
func runFused(a, b propSystem, m Method, T int, gated bool) (*particle.Store, *particle.Store, float64) {
	tm := NewTeam(T, Costs{})
	defer tm.Close()
	wa, wb := a.ps.Clone(), b.ps.Clone()
	wa.ZeroForces()
	wb.ZeroForces()
	fu := NewFusedUpdater(m)
	fu.Prepare([]FusedPiece{
		{PS: wa, Links: a.list.Links, NCoreLinks: a.list.NCore, NCore: a.n},
		{PS: wb, Links: b.list.Links, NCoreLinks: b.list.NCore, NCore: b.n},
	}, T)
	if !gated {
		fu.AccumulateStart(tm, a.sp, a.box, nil)
		return wa, wb, fu.AccumulateFinish(tm, tm.Clock())
	}
	gate := NewHaloGate()
	fu.AccumulateStart(tm, a.sp, a.box, gate)
	gate.Open(0)
	return wa, wb, fu.AccumulateFinish(tm, 0)
}

// TestOwnerWritesBitIdenticalToSerial is the determinism property of
// the owner-write loop: for random systems across dimensionality,
// force law, damping, bonds and boundary condition, the per-block and
// fused updaters give forces bit-identical to the serial kernel at
// every team size, with and without the fault-injection hook and the
// split-phase halo gate. The energy keeps the per-thread partial order
// and so only matches to rounding.
func TestOwnerWritesBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, d := range []int{2, 3} {
		for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
			for variant := 0; variant < 4; variant++ {
				hertz, damped, bonded := variant&1 != 0, variant != 1, variant == 3
				s := randomSystem(rng, d, bc, hertz, damped, bonded)
				// The fused region's second piece: an independent draw
				// under the same force law, or for bonded runs a copy
				// of the first, whose IDs the bond table covers.
				other := s
				if !bonded {
					other = randomSystem(rng, d, bc, hertz, damped, false)
				}
				ref, eref := s.serialForces()
				refB, erefB := other.serialForces()
				t.Run(s.name, func(t *testing.T) {
					defer func() { PairForceHook = nil }()
					for _, m := range ownerMethods {
						for T := 1; T <= 4; T++ {
							for _, hooked := range []bool{false, true} {
								for _, gated := range []bool{false, true} {
									label := fmt.Sprintf("%v/T=%d/hook=%v/gate=%v", m, T, hooked, gated)
									if hooked {
										PairForceHook = func(_ Method, _, _ int32, fi geom.Vec) geom.Vec { return fi }
									}
									work, e := runUpdater(s, m, T, gated)
									assertForcesBitEqual(t, "updater "+label, ref, work, s.ps.Len())
									if math.Abs(e-eref) > 1e-12*math.Abs(eref) {
										t.Errorf("updater %s: energy %.17g, serial %.17g", label, e, eref)
									}
									wa, wb, ef := runFused(s, other, m, T, gated)
									PairForceHook = nil
									assertForcesBitEqual(t, "fused piece 0 "+label, ref, wa, s.ps.Len())
									assertForcesBitEqual(t, "fused piece 1 "+label, refB, wb, other.ps.Len())
									if want := eref + erefB; math.Abs(ef-want) > 1e-12*math.Abs(want) {
										t.Errorf("fused %s: energy %.17g, serial %.17g", label, ef, want)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestAllMethodsRepeatBitwise: every method, the array reductions
// included, gives the same force bits and energy on every repetition
// of the same input at T=4, however the threads are scheduled.
func TestAllMethodsRepeatBitwise(t *testing.T) {
	s := randomSystem(rand.New(rand.NewSource(21)), 2, geom.Periodic, false, true, false)
	for _, m := range append(append([]Method(nil), Methods...), Unprotected) {
		first, e0 := runUpdater(s, m, 4, false)
		for r := 0; r < 6; r++ {
			work, e := runUpdater(s, m, 4, false)
			assertForcesBitEqual(t, fmt.Sprintf("%v repetition %d", m, r), first, work, s.ps.Len())
			if math.Float64bits(e) != math.Float64bits(e0) {
				t.Fatalf("%v repetition %d: energy %.17g, first run %.17g", m, r, e, e0)
			}
		}
	}
}

// TestOwnerWritesChargesUnchanged pins the modelled charges of the
// owner-write loop to the lock counts of the conflict table: Atomic
// locks every update, SelectedAtomic exactly the updates of shared
// particles, Unprotected none; the totals do not depend on the method.
func TestOwnerWritesChargesUnchanged(t *testing.T) {
	const n, halo, T = 300, 40, 3
	ps, list, box, sp := buildForceSystem(17, n, halo, 2)
	ct := BuildConflictTable(list.Links, ps.Len(), n, T)
	var all, shared int64
	for _, l := range list.Links {
		all++
		if ct.shared[l.I] {
			shared++
		}
		if int(l.J) < n {
			all++
			if ct.shared[l.J] {
				shared++
			}
		}
	}
	want := map[Method][2]int64{
		Atomic:         {all, 0},
		SelectedAtomic: {shared, all - shared},
		Unprotected:    {0, all},
	}
	for _, m := range ownerMethods {
		tm := NewTeam(T, Costs{})
		u := NewUpdater(m)
		u.Prepare(list.Links, ps.Len(), n, T)
		work := ps.Clone()
		u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
		tm.Close()
		got := [2]int64{tm.TC.AtomicsTaken, tm.TC.AtomicsAvoided}
		if got != want[m] {
			t.Errorf("%v: taken/avoided %v, want %v", m, got, want[m])
		}
		if tm.TC.ForceUpdates != all || tm.TC.ForceEvals != int64(len(list.Links)) {
			t.Errorf("%v: %d updates over %d evals, want %d over %d",
				m, tm.TC.ForceUpdates, tm.TC.ForceEvals, all, len(list.Links))
		}
	}
}
