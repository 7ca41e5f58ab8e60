// Package verify is the differential and metamorphic conformance
// harness of the module. The paper's whole argument rests on the claim
// that the serial, OpenMP, MPI and hybrid drivers are the same
// simulation — differing only in cost, never in physics — and this
// package turns that claim into an executable oracle:
//
//   - Differential: RunConformance pushes one configuration through
//     every execution mode × force-update strategy × reordering
//     setting and compares whole trajectories (not just final norms)
//     against the serial baseline, localising the first divergent
//     step, particle and field when they disagree.
//   - Metamorphic: CheckNewtonZeroSum, CheckTranslationInvariance,
//     CheckAxisPermutationInvariance, CheckReorderInvariance,
//     CheckRefinementInvariance and CheckCheckpointRoundTrip assert
//     symmetries any correct DEM must satisfy without reference to a
//     second implementation.
//   - Generative: Scenario builds seeded initial conditions (uniform,
//     clustered, bonded grains, degenerate grids, near-boundary
//     placements) consumed by the package's testing/quick properties
//     and native fuzz targets.
//
// Every future performance or scaling PR is expected to keep this
// package green; cmd/demrun exposes the differential harness to users
// behind the -verify flag.
package verify

import (
	"fmt"
	"math"

	"hybriddem/internal/core"
	"hybriddem/internal/geom"
)

// DefaultTol is the trajectory agreement tolerance used when a caller
// passes 0: the same bound the repo's hand-rolled equivalence tests
// have always enforced over ~100 steps.
const DefaultTol = 1e-7

// Step is one captured iteration of a trajectory, indexed by particle
// ID.
type Step struct {
	Pos []geom.Vec
	Vel []geom.Vec
}

// Trajectory is the per-step state of one run plus its final result.
type Trajectory struct {
	Box   geom.Box
	Steps []Step
	Res   *core.Result
}

// Capture runs cfg for iters measured iterations recording the global
// state after every step. The configuration's Probe and CollectState
// fields are overwritten.
func Capture(cfg core.Config, iters int) (*Trajectory, error) {
	tr := &Trajectory{Box: cfg.Box()}
	cfg.CollectState = true
	cfg.Probe = func(iter int, pos, vel []geom.Vec) {
		tr.Steps = append(tr.Steps, Step{Pos: pos, Vel: vel})
	}
	res, err := core.Run(cfg, iters)
	if err != nil {
		return nil, err
	}
	tr.Res = res
	return tr, nil
}

// Divergence localises the first disagreement between two
// trajectories.
type Divergence struct {
	Step      int     // measured iteration index (0-based)
	Particle  int     // particle ID
	Field     string  // "pos" or "vel"
	Component int     // coordinate index of the largest difference
	A, B      float64 // the two values of that component
	Dev       float64 // Euclidean deviation of the field at that particle
}

func (dv *Divergence) String() string {
	return fmt.Sprintf("first divergence at step %d: particle %d %s[%d] = %.9g vs %.9g (|Δ%s| = %.3g)",
		dv.Step, dv.Particle, dv.Field, dv.Component, dv.A, dv.B, dv.Field, dv.Dev)
}

// Compare walks two trajectories step by step and returns the first
// divergence beyond tol (nil if none) plus the maximum deviation seen
// anywhere. Positions are compared under the box's minimum image so
// that runs which defer periodic wrapping differently still agree.
func Compare(box geom.Box, a, b *Trajectory, tol float64) (*Divergence, float64) {
	if tol <= 0 {
		tol = DefaultTol
	}
	steps := len(a.Steps)
	if len(b.Steps) < steps {
		steps = len(b.Steps)
	}
	maxDev := 0.0
	var first *Divergence
	for s := 0; s < steps; s++ {
		sa, sb := a.Steps[s], b.Steps[s]
		n := len(sa.Pos)
		if len(sb.Pos) < n {
			n = len(sb.Pos)
		}
		for i := 0; i < n; i++ {
			dp := math.Sqrt(box.Dist2(sa.Pos[i], sb.Pos[i]))
			dv := math.Sqrt(geom.Norm2(geom.Sub(sa.Vel[i], sb.Vel[i], box.D), box.D))
			if dp > maxDev {
				maxDev = dp
			}
			if dv > maxDev {
				maxDev = dv
			}
			if first == nil && (dp > tol || dv > tol) {
				first = localize(box, sa, sb, s, i, dp, dv)
			}
		}
	}
	if len(a.Steps) != len(b.Steps) && first == nil {
		first = &Divergence{Step: steps, Field: "length", Dev: math.Abs(float64(len(a.Steps) - len(b.Steps)))}
	}
	return first, maxDev
}

// CompareExact demands bitwise equality of two trajectories: every
// position and velocity component of every particle at every step must
// be the identical float64. It is the oracle for transformations that
// only reschedule work without reassociating any floating-point
// operation — the split-phase halo exchange must pass it against the
// synchronous exchange, since overlapping communication with the
// core-link pass changes when data moves, never what is computed.
func CompareExact(a, b *Trajectory) *Divergence {
	if len(a.Steps) != len(b.Steps) {
		return &Divergence{Step: min(len(a.Steps), len(b.Steps)), Field: "length",
			Dev: math.Abs(float64(len(a.Steps) - len(b.Steps)))}
	}
	for s := range a.Steps {
		sa, sb := a.Steps[s], b.Steps[s]
		if len(sa.Pos) != len(sb.Pos) {
			return &Divergence{Step: s, Field: "length"}
		}
		for i := range sa.Pos {
			for k := 0; k < geom.MaxD; k++ {
				if sa.Pos[i][k] != sb.Pos[i][k] {
					return &Divergence{Step: s, Particle: i, Field: "pos", Component: k,
						A: sa.Pos[i][k], B: sb.Pos[i][k], Dev: math.Abs(sa.Pos[i][k] - sb.Pos[i][k])}
				}
				if sa.Vel[i][k] != sb.Vel[i][k] {
					return &Divergence{Step: s, Particle: i, Field: "vel", Component: k,
						A: sa.Vel[i][k], B: sb.Vel[i][k], Dev: math.Abs(sa.Vel[i][k] - sb.Vel[i][k])}
				}
			}
		}
	}
	return nil
}

// localize pins the divergence at (step s, particle i) to the worse of
// the two fields and its largest component.
func localize(box geom.Box, sa, sb Step, s, i int, dp, dv float64) *Divergence {
	field, dev := "pos", dp
	va, vb := sa.Pos[i], sb.Pos[i]
	diff := box.Disp(vb, va) // minimum-image difference va - vb
	if dv > dp {
		field, dev = "vel", dv
		va, vb = sa.Vel[i], sb.Vel[i]
		diff = geom.Sub(va, vb, box.D)
	}
	comp := 0
	for k := 1; k < box.D; k++ {
		if math.Abs(diff[k]) > math.Abs(diff[comp]) {
			comp = k
		}
	}
	return &Divergence{Step: s, Particle: i, Field: field, Component: comp,
		A: va[comp], B: vb[comp], Dev: dev}
}
