package verify

import (
	"testing"

	"hybriddem/internal/core"
	"hybriddem/internal/shm"
)

// TestOverlapBitIdenticalToSync is the acceptance oracle of the rank
// step's two schedules: overlapping communication with the core-link
// force pass reschedules work but reassociates no floating-point
// operation, so the trajectory must match the synchronous schedule bit
// for bit — not merely within tolerance. Shapes cover MPI and mpism at
// several decompositions, every hybrid update method including the
// owner-write ones at T>1 (their conflicted updates replay in thread
// order, so any T is deterministic), the fused loop, damped systems
// whose halos carry velocities, and both rebalancers, whose migrations
// follow the rebuild vote.
func TestOverlapBitIdenticalToSync(t *testing.T) {
	type shape struct {
		name   string
		kind   Kind
		mutate func(*core.Config)
	}
	shapes := []shape{
		{"mpi/p2-bpp2", Uniform, func(c *core.Config) {
			c.Mode = core.MPI
			c.P, c.BlocksPerProc = 2, 2
		}},
		{"mpi/p4", Uniform, func(c *core.Config) {
			c.Mode = core.MPI
			c.P = 4
		}},
		{"mpi/p2-damped", Clustered, func(c *core.Config) {
			c.Mode = core.MPI
			c.P, c.BlocksPerProc = 2, 2
			c.Spring.Damp = 2
		}},
		{"hybrid/stripe-t2", Uniform, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 2, 2
			c.Method = shm.Stripe
		}},
		{"hybrid/transpose-t2", Uniform, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 2, 2
			c.Method = shm.Transpose
		}},
		{"hybrid/selected-atomic-t1", Uniform, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 1, 2
			c.Method = shm.SelectedAtomic
		}},
		{"hybrid/fused-selected-atomic-t1", Uniform, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 1, 2
			c.Method = shm.SelectedAtomic
			c.Fused = true
		}},
		{"hybrid/selected-atomic-t2", Uniform, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 2, 2
			c.Method = shm.SelectedAtomic
		}},
		{"hybrid/atomic-t3", Clustered, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 3, 2
			c.Method = shm.Atomic
		}},
		{"hybrid/fused-selected-atomic-t2", Uniform, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 2, 2
			c.Method = shm.SelectedAtomic
			c.Fused = true
		}},
		{"hybrid/critical-t2-damped", Clustered, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 2, 2
			c.Method = shm.CriticalReduction
			c.Spring.Damp = 2
		}},
		{"mpism/p4", Uniform, func(c *core.Config) {
			c.Mode = core.MPIsm
			c.P = 4
		}},
		{"mpi/p2-lpt", Clustered, func(c *core.Config) {
			c.Mode = core.MPI
			c.P, c.BlocksPerProc = 2, 4
			c.Rebalance = core.RebalanceLPT
		}},
		{"hybrid/orb-t2", Clustered, func(c *core.Config) {
			c.Mode = core.Hybrid
			c.P, c.T, c.BlocksPerProc = 2, 2, 4
			c.Method = shm.SelectedAtomic
			c.Rebalance = core.RebalanceORB
		}},
	}
	for _, s := range shapes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			cfg := testScenario(t, s.kind, 2, 200, 17)
			s.mutate(&cfg)
			cfg.Overlap = false
			sync, err := Capture(cfg, 20)
			if err != nil {
				t.Fatalf("sync run: %v", err)
			}
			cfg.Overlap = true
			ovl, err := Capture(cfg, 20)
			if err != nil {
				t.Fatalf("overlap run: %v", err)
			}
			if div := CompareExact(sync, ovl); div != nil {
				t.Fatalf("overlap trajectory differs from synchronous: %s", div)
			}
		})
	}
}
