package verify

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"hybriddem/internal/core"
	"hybriddem/internal/shm"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the seed golden trajectories from the current code (only valid on a bit-exact baseline)")

// soaGoldenMode is one execution shape replayed against the seed
// goldens. Only the two reference modes own a golden file: every
// threaded shape must reproduce the golden of the thread-free mode
// with the same decomposition bit for bit — openmp the serial golden,
// hybrid and hybrid-fused the mpi golden — at any team size, update
// method and scheduling.
type soaGoldenMode struct {
	name   string
	golden string // the reference mode whose golden this shape must match
	mutate func(*core.Config)
}

// openmpMode is an openmp shape with team size t and method m.
func openmpMode(name string, t int, m shm.Method) soaGoldenMode {
	return soaGoldenMode{name, "serial", func(c *core.Config) {
		c.Mode = core.OpenMP
		c.T = t
		c.Method = m
	}}
}

var soaGoldenModes = []soaGoldenMode{
	{"serial", "serial", func(c *core.Config) {}},
	openmpMode("openmp", 3, shm.SelectedAtomic),
	openmpMode("openmp-t2", 2, shm.SelectedAtomic),
	openmpMode("openmp-t4", 4, shm.SelectedAtomic),
	openmpMode("openmp-atomic", 3, shm.Atomic),
	{"mpi", "mpi", func(c *core.Config) {
		c.Mode = core.MPI
		c.P = 2
		c.BlocksPerProc = 2
	}},
	{"hybrid", "mpi", func(c *core.Config) {
		c.Mode = core.Hybrid
		c.P, c.T = 2, 2
		c.BlocksPerProc = 2
		c.Method = shm.SelectedAtomic
	}},
	{"hybrid-fused", "mpi", func(c *core.Config) {
		c.Mode = core.Hybrid
		c.P, c.T = 2, 2
		c.BlocksPerProc = 2
		c.Method = shm.Atomic
		c.Fused = true
	}},
}

// soaGoldenCase pins one scenario family at one dimensionality. The
// time step is raised well above the default so the short captured
// window crosses at least one list rebuild — the goldens must witness
// migration, reordering and halo reconstruction, not just the smooth
// inner loop.
type soaGoldenCase struct {
	kind Kind
	d, n int
}

var soaGoldenCases = []soaGoldenCase{
	// d=3 cases need enough particles that the box still splits into
	// the 4 decomposed blocks without an edge dropping below the
	// cutoff.
	{Uniform, 2, 48},
	{Clustered, 3, 256},
	{BondedGrains, 2, 48},
	{DegenerateGrid, 2, 49},
	{NearBoundary, 3, 256},
}

const soaGoldenIters = 14

func soaGoldenConfig(t *testing.T, c soaGoldenCase) core.Config {
	t.Helper()
	cfg, err := Scenario(c.kind, c.d, c.n, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Faster motion so the 14-step window rebuilds the lists at least
	// once (skin/velocity gives roughly one rebuild per 6 steps).
	cfg.Dt = 1e-3
	return cfg
}

// TestSoABitIdenticalToSeed replays the five seeded scenario families
// through all four execution modes (openmp at several team sizes and
// both per-update methods, plus the fused hybrid kernel) and demands
// CompareExact equality with the serial and mpi golden trajectories
// captured before the structure-of-arrays storage refactor. Any
// reassociation of floating-point arithmetic in the particle store,
// the link builder, the pair kernel, the integrator, the halo exchange
// or the shared-memory update loop fails this test with the first
// divergent step, particle and component.
//
// Regenerate the two reference goldens (only from a known bit-exact
// baseline!) with:
//
//	go test ./internal/verify -run TestSoABitIdenticalToSeed -update-golden
func TestSoABitIdenticalToSeed(t *testing.T) {
	for _, c := range soaGoldenCases {
		c := c
		for _, m := range soaGoldenModes {
			m := m
			name := fmt.Sprintf("%v-d%d/%s", c.kind, c.d, m.name)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := soaGoldenConfig(t, c)
				m.mutate(&cfg)
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				tr, err := Capture(cfg, soaGoldenIters)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata",
					fmt.Sprintf("soa_%v_d%d_%s.golden", c.kind, c.d, m.golden))
				if *updateGolden {
					if m.golden != m.name {
						return // threaded shapes own no golden
					}
					if err := SaveGoldenFile(path, tr); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d steps)", path, len(tr.Steps))
					return
				}
				want, err := LoadGoldenFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate from a bit-exact baseline with -update-golden)", err)
				}
				if dv := CompareExact(want, tr); dv != nil {
					t.Fatalf("trajectory diverged from the pre-SoA %s seed golden: %v", m.golden, dv)
				}
			})
		}
	}
}

// TestGoldenRoundTrip exercises the golden file format itself:
// save/load is lossless, and a corrupted byte is detected by the
// frame checksum rather than silently decoding.
func TestGoldenRoundTrip(t *testing.T) {
	cfg := soaGoldenConfig(t, soaGoldenCases[0])
	tr, err := Capture(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.golden")
	if err := SaveGoldenFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGoldenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dv := CompareExact(tr, got); dv != nil {
		t.Fatalf("round trip not lossless: %v", dv)
	}
}
