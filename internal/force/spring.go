// Package force implements the pairwise interaction and the time
// integrator of the paper's test code: identical elastic spheres whose
// contact force costs "one floating point inverse and one square root"
// per pair, optional dissipative damping (the grain-bond model of the
// full Physics DEM), and a second-order accurate kick-drift update.
package force

import (
	"math"

	"hybriddem/internal/cell"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
	"hybriddem/internal/trace"
)

// Spring is a linear repulsive contact force between spheres of equal
// diameter: for separation r < Diameter the pair repels with magnitude
// K*(Diameter-r), plus an optional dissipative term Damp*vn along the
// contact normal (a "dissipative spring", zero for the elastic
// benchmark). Particle mass is 1.
type Spring struct {
	Diameter float64 // contact distance; rmax of the model
	K        float64 // spring stiffness
	Damp     float64 // normal damping coefficient, >= 0

	// Hertz switches the contact law from the paper's linear spring
	// to the Hertzian K*overlap^(3/2) of elastic-sphere contact
	// mechanics — softer at grazing contact, stiffer when deeply
	// compressed. Provided as a model extension; all benchmarks use
	// the linear law.
	Hertz bool

	// Bonds, when non-nil, overrides the contact force for the
	// permanently bonded pairs of composite grains (see BondTable).
	Bonds *BondTable
}

// RMax returns the longest force range, which for a contact model is
// the sphere diameter.
func (s Spring) RMax() float64 { return s.Diameter }

// PairEnergy returns the potential energy stored at separation r.
func (s Spring) PairEnergy(r float64) float64 {
	if r >= s.Diameter {
		return 0
	}
	o := s.Diameter - r
	if s.Hertz {
		return 0.4 * s.K * o * o * math.Sqrt(o)
	}
	return 0.5 * s.K * o * o
}

// Pair computes the force the pair exerts on particle i (the force on
// j is the negative) and the pair potential energy, given the
// displacement from i to j and the relative velocity vj-vi. It mirrors
// the paper's cost profile: one sqrt and one divide on the hot path.
func (s Spring) Pair(disp, relVel geom.Vec, d int) (fi geom.Vec, e float64, contact bool) {
	r2 := geom.Norm2(disp, d)
	if r2 >= s.Diameter*s.Diameter || r2 == 0 {
		return geom.Vec{}, 0, false
	}
	r := math.Sqrt(r2)
	inv := 1.0 / r
	overlap := s.Diameter - r
	// Repulsion pushes i away from j: along -disp.
	var mag, epair float64
	if s.Hertz {
		h := overlap * math.Sqrt(overlap)
		mag = s.K * h
		epair = 0.4 * s.K * h * overlap // integral of K o^(3/2)
	} else {
		mag = s.K * overlap
		epair = 0.5 * s.K * overlap * overlap
	}
	if s.Damp > 0 {
		// Normal component of the approach velocity; damping opposes
		// relative motion along the contact normal.
		vn := geom.Dot(relVel, disp, d) * inv
		mag -= s.Damp * vn
	}
	for k := 0; k < d; k++ {
		fi[k] = -mag * disp[k] * inv
	}
	return fi, epair, true
}

// halfLengths returns the minimum-image thresholds of box, one per
// component: exactly Len[k]/2 for periodic boxes (the division by two
// is exact, so comparing against the precomputed half is bit-identical
// to comparing against l/2 inline) and +Inf otherwise, which disables
// the image branches without a separate boundary-condition test in the
// inner loop.
func halfLengths(box geom.Box) (h geom.Vec) {
	for k := 0; k < box.D; k++ {
		if box.BC == geom.Periodic {
			h[k] = box.Len[k] / 2
		} else {
			h[k] = math.Inf(1)
		}
	}
	return h
}

// Accumulate walks links, adding pair forces into ps.Frc and returning
// the accumulated potential energy scaled by energyScale (the paper
// multiplies halo-link energy by one half to avoid double counting
// between replicating blocks). Forces are applied to link endpoint I
// always and to J only when J < nCore: halo copies never need forces
// since their home block computes the mirrored update itself.
//
// This is the serial kernel; the thread-parallel updaters in
// internal/shm run the same pair math over each thread's link chunk
// through AccumulateSplit. Without a bond table it dispatches to
// dimension-specialised structure-of-arrays loops whose inner bodies
// carry no function calls: the component slices are re-sliced to the
// particle count once so the compiler hoists the bounds checks, and
// the pair math runs in registers. The float64 results are
// bit-identical to the straightforward Disp/Sub/Pair formulation — the
// same operations in the same order — which TestSoABitIdenticalToSeed
// enforces against pre-refactor golden trajectories.
func (s Spring) Accumulate(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, energyScale float64, tc *trace.Counters) float64 {
	var epot float64
	var distSum, contacts int64
	if s.Bonds == nil {
		switch ps.D {
		case 2:
			epot, contacts, distSum = s.accumulate2(ps, links, nCore, box)
		case 3:
			epot, contacts, distSum = s.accumulate3(ps, links, nCore, box)
		default:
			epot, contacts, distSum = s.accumulateSlow(ps, links, nCore, box, 0, 1, nil)
		}
	} else {
		epot, contacts, distSum = s.accumulateSlow(ps, links, nCore, box, 0, 1, nil)
	}
	if tc != nil {
		n := int64(len(links))
		tc.ForceEvals += n
		tc.LinkVisits += n
		tc.Contacts += contacts
		tc.ForceUpdates += 2 * n
		tc.LinkIndexDistSum += distSum
		tc.LinkIndexDistN += n
	}
	return epot * energyScale
}

// Update is one deferred force increment: F, already signed, is to be
// added to the force of particle P.
type Update struct {
	P int32
	F geom.Vec
}

// Split routes the force writes of one thread of a shared-memory force
// loop. Increments to particles marked in Deferred are not written:
// they are appended to Log in link order, for the caller to replay
// after the threads join. A nil Deferred writes every increment
// straight into the force array. Log must be preallocated to its
// worst case for the loop to stay allocation-free.
type Split struct {
	Deferred []bool
	Log      []Update

	// Hook, when non-nil, rewrites every pair force before it is
	// applied (a fault-injection point). It routes the loop through
	// the generic kernel, which evaluates it on every link.
	Hook func(idI, idJ int32, fi geom.Vec) geom.Vec
}

// AccumulateSplit is Accumulate for one span of a shared-memory
// thread's link chunk: it adds escale times each pair energy to the
// running total epot, in link order, and returns the new total with
// the span's contact count and link index distance sum. Increments to
// particles split defers go to split.Log instead of ps.Frc (see
// Split, which must not be nil); the forces a particle receives are
// bit-identical to the serial kernel's.
func (s Spring) AccumulateSplit(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, escale float64, split *Split) (float64, int64, int64) {
	if s.Bonds == nil && split.Hook == nil {
		switch ps.D {
		case 2:
			return s.accumulate2Split(ps, links, nCore, box, epot, escale, split)
		case 3:
			return s.accumulate3Split(ps, links, nCore, box, epot, escale, split)
		}
	}
	return s.accumulateSlow(ps, links, nCore, box, epot, escale, split)
}

// accumulate2 is the d=2 contact kernel on component slices.
//
// Two deviations from the naive loop are exact and deliberate:
// non-contact links skip their force writes (the skipped adds are all
// ±0.0, and an accumulator seeded at +0.0 under IEEE-754
// round-to-nearest can never become -0.0 through ±x adds, so skipping
// never changes a bit), and the relative velocity loads only when the
// spring is damped — the undamped law never reads them.
func (s Spring) accumulate2(ps *particle.Store, links []cell.Link, nCore int, box geom.Box) (epot float64, contacts, distSum int64) {
	n := ps.Len()
	x0, x1 := ps.Pos[0][:n], ps.Pos[1][:n]
	v0, v1 := ps.Vel[0][:n], ps.Vel[1][:n]
	f0, f1 := ps.Frc[0][:n], ps.Frc[1][:n]
	h := halfLengths(box)
	l0, l1 := box.Len[0], box.Len[1]
	h0, h1 := h[0], h[1]
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	nc := int32(nCore)
	for _, l := range links {
		i, j := l.I, l.J
		di := int64(i) - int64(j)
		if di < 0 {
			di = -di
		}
		distSum += di
		dx := x0[j] - x0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := x1[j] - x1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		r2 := dx*dx + dy*dy
		if r2 >= diam2 || r2 == 0 {
			continue
		}
		contacts++
		r := math.Sqrt(r2)
		inv := 1.0 / r
		overlap := s.Diameter - r
		var mag, epair float64
		if hertz {
			hh := overlap * math.Sqrt(overlap)
			mag = s.K * hh
			epair = 0.4 * s.K * hh * overlap
		} else {
			mag = s.K * overlap
			epair = 0.5 * s.K * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy) * inv
			mag -= damp * vn
		}
		epot += epair
		fx := -mag * dx * inv
		fy := -mag * dy * inv
		f0[i] += fx
		f1[i] += fy
		if j < nc {
			f0[j] -= fx
			f1[j] -= fy
		}
	}
	return epot, contacts, distSum
}

// accumulate3 is the d=3 contact kernel on component slices; see
// accumulate2 for the exactness argument.
func (s Spring) accumulate3(ps *particle.Store, links []cell.Link, nCore int, box geom.Box) (epot float64, contacts, distSum int64) {
	n := ps.Len()
	x0, x1, x2 := ps.Pos[0][:n], ps.Pos[1][:n], ps.Pos[2][:n]
	v0, v1, v2 := ps.Vel[0][:n], ps.Vel[1][:n], ps.Vel[2][:n]
	f0, f1, f2 := ps.Frc[0][:n], ps.Frc[1][:n], ps.Frc[2][:n]
	h := halfLengths(box)
	l0, l1, l2 := box.Len[0], box.Len[1], box.Len[2]
	h0, h1, h2 := h[0], h[1], h[2]
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	nc := int32(nCore)
	for _, l := range links {
		i, j := l.I, l.J
		di := int64(i) - int64(j)
		if di < 0 {
			di = -di
		}
		distSum += di
		dx := x0[j] - x0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := x1[j] - x1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		dz := x2[j] - x2[i]
		if dz > h2 {
			dz -= l2
		} else if dz < -h2 {
			dz += l2
		}
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= diam2 || r2 == 0 {
			continue
		}
		contacts++
		r := math.Sqrt(r2)
		inv := 1.0 / r
		overlap := s.Diameter - r
		var mag, epair float64
		if hertz {
			hh := overlap * math.Sqrt(overlap)
			mag = s.K * hh
			epair = 0.4 * s.K * hh * overlap
		} else {
			mag = s.K * overlap
			epair = 0.5 * s.K * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy + (v2[j]-v2[i])*dz) * inv
			mag -= damp * vn
		}
		epot += epair
		fx := -mag * dx * inv
		fy := -mag * dy * inv
		fz := -mag * dz * inv
		f0[i] += fx
		f1[i] += fy
		f2[i] += fz
		if j < nc {
			f0[j] -= fx
			f1[j] -= fy
			f2[j] -= fz
		}
	}
	return epot, contacts, distSum
}

// accumulate2Split is accumulate2 for one span of a shared-memory
// thread's chunk: the same pair math operation for operation, with
// each pair energy scaled by escale into the running total and the
// force writes routed through split. It is a separate loop so the
// serial kernel carries no routing test; the shm property tests hold
// the two bit-identical. Non-contact links skip their deferred
// increments too, which is why a log holds fewer entries than its
// worst case.
func (s Spring) accumulate2Split(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, escale float64, split *Split) (float64, int64, int64) {
	var contacts, distSum int64
	if split.Deferred == nil {
		split = nil // nothing deferred: every write is direct
	}
	n := ps.Len()
	x0, x1 := ps.Pos[0][:n], ps.Pos[1][:n]
	v0, v1 := ps.Vel[0][:n], ps.Vel[1][:n]
	f0, f1 := ps.Frc[0][:n], ps.Frc[1][:n]
	h := halfLengths(box)
	l0, l1 := box.Len[0], box.Len[1]
	h0, h1 := h[0], h[1]
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	nc := int32(nCore)
	for _, l := range links {
		i, j := l.I, l.J
		di := int64(i) - int64(j)
		if di < 0 {
			di = -di
		}
		distSum += di
		dx := x0[j] - x0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := x1[j] - x1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		r2 := dx*dx + dy*dy
		if r2 >= diam2 || r2 == 0 {
			continue
		}
		contacts++
		r := math.Sqrt(r2)
		inv := 1.0 / r
		overlap := s.Diameter - r
		var mag, epair float64
		if hertz {
			hh := overlap * math.Sqrt(overlap)
			mag = s.K * hh
			epair = 0.4 * s.K * hh * overlap
		} else {
			mag = s.K * overlap
			epair = 0.5 * s.K * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy) * inv
			mag -= damp * vn
		}
		epot += escale * epair
		fx := -mag * dx * inv
		fy := -mag * dy * inv
		if split == nil || !split.Deferred[i] {
			f0[i] += fx
			f1[i] += fy
		} else {
			split.Log = append(split.Log, Update{P: i, F: geom.Vec{fx, fy}})
		}
		if j < nc {
			if split == nil || !split.Deferred[j] {
				f0[j] -= fx
				f1[j] -= fy
			} else {
				split.Log = append(split.Log, Update{P: j, F: geom.Vec{-fx, -fy}})
			}
		}
	}
	return epot, contacts, distSum
}

// accumulate3Split is accumulate3 for one span of a shared-memory
// thread's chunk; see accumulate2Split.
func (s Spring) accumulate3Split(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, escale float64, split *Split) (float64, int64, int64) {
	var contacts, distSum int64
	if split.Deferred == nil {
		split = nil // nothing deferred: every write is direct
	}
	n := ps.Len()
	x0, x1, x2 := ps.Pos[0][:n], ps.Pos[1][:n], ps.Pos[2][:n]
	v0, v1, v2 := ps.Vel[0][:n], ps.Vel[1][:n], ps.Vel[2][:n]
	f0, f1, f2 := ps.Frc[0][:n], ps.Frc[1][:n], ps.Frc[2][:n]
	h := halfLengths(box)
	l0, l1, l2 := box.Len[0], box.Len[1], box.Len[2]
	h0, h1, h2 := h[0], h[1], h[2]
	diam2 := s.Diameter * s.Diameter
	hertz, damp := s.Hertz, s.Damp
	nc := int32(nCore)
	for _, l := range links {
		i, j := l.I, l.J
		di := int64(i) - int64(j)
		if di < 0 {
			di = -di
		}
		distSum += di
		dx := x0[j] - x0[i]
		if dx > h0 {
			dx -= l0
		} else if dx < -h0 {
			dx += l0
		}
		dy := x1[j] - x1[i]
		if dy > h1 {
			dy -= l1
		} else if dy < -h1 {
			dy += l1
		}
		dz := x2[j] - x2[i]
		if dz > h2 {
			dz -= l2
		} else if dz < -h2 {
			dz += l2
		}
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= diam2 || r2 == 0 {
			continue
		}
		contacts++
		r := math.Sqrt(r2)
		inv := 1.0 / r
		overlap := s.Diameter - r
		var mag, epair float64
		if hertz {
			hh := overlap * math.Sqrt(overlap)
			mag = s.K * hh
			epair = 0.4 * s.K * hh * overlap
		} else {
			mag = s.K * overlap
			epair = 0.5 * s.K * overlap * overlap
		}
		if damp > 0 {
			vn := ((v0[j]-v0[i])*dx + (v1[j]-v1[i])*dy + (v2[j]-v2[i])*dz) * inv
			mag -= damp * vn
		}
		epot += escale * epair
		fx := -mag * dx * inv
		fy := -mag * dy * inv
		fz := -mag * dz * inv
		if split == nil || !split.Deferred[i] {
			f0[i] += fx
			f1[i] += fy
			f2[i] += fz
		} else {
			split.Log = append(split.Log, Update{P: i, F: geom.Vec{fx, fy, fz}})
		}
		if j < nc {
			if split == nil || !split.Deferred[j] {
				f0[j] -= fx
				f1[j] -= fy
				f2[j] -= fz
			} else {
				split.Log = append(split.Log, Update{P: j, F: geom.Vec{-fx, -fy, -fz}})
			}
		}
	}
	return epot, contacts, distSum
}

// accumulateSlow is the generic kernel: it gathers Vec values from the
// component slices and evaluates the bond-aware pair law, serving any
// dimensionality, every bonded run and every hooked one. It applies
// every link's increment, contact or not.
func (s Spring) accumulateSlow(ps *particle.Store, links []cell.Link, nCore int, box geom.Box, epot, escale float64, split *Split) (float64, int64, int64) {
	var contacts, distSum int64
	var deferred []bool
	var log []Update
	var hook func(idI, idJ int32, fi geom.Vec) geom.Vec
	if split != nil {
		deferred, log, hook = split.Deferred, split.Log, split.Hook
	}
	d := ps.D
	pos, vel, frc, ids := &ps.Pos, &ps.Vel, &ps.Frc, ps.ID
	for _, l := range links {
		disp := box.DispAt(pos, l.I, l.J)
		rel := geom.SubAt(vel, l.J, l.I, d)
		fi, e, contact := s.PairID(ids[l.I], ids[l.J], disp, rel, d)
		if hook != nil {
			fi = hook(ids[l.I], ids[l.J], fi)
		}
		if contact {
			contacts++
		}
		epot += escale * e
		if deferred != nil && deferred[l.I] {
			log = append(log, Update{P: l.I, F: fi})
		} else {
			for k := 0; k < d; k++ {
				frc[k][l.I] += fi[k]
			}
		}
		if int(l.J) < nCore {
			if deferred != nil && deferred[l.J] {
				log = append(log, Update{P: l.J, F: geom.Scale(fi, -1, d)})
			} else {
				for k := 0; k < d; k++ {
					frc[k][l.J] -= fi[k]
				}
			}
		}
		di := int64(l.I) - int64(l.J)
		if di < 0 {
			di = -di
		}
		distSum += di
	}
	if split != nil {
		split.Log = log
	}
	return epot, contacts, distSum
}

// Replay adds deferred increments to the component-major force array
// frc, in log order.
func Replay(frc *geom.Coords, d int, log []Update) {
	for _, u := range log {
		for k := 0; k < d; k++ {
			frc[k][u.P] += u.F[k]
		}
	}
}

// PotentialOnly walks links summing pair potential energy without
// touching the force array; used by invariant tests.
func (s Spring) PotentialOnly(ps *particle.Store, links []cell.Link, box geom.Box, scale float64) float64 {
	epot := 0.0
	for _, l := range links {
		r2 := box.Dist2At(&ps.Pos, l.I, l.J)
		if r2 < s.Diameter*s.Diameter {
			epot += s.PairEnergy(math.Sqrt(r2))
		}
	}
	return epot * scale
}
