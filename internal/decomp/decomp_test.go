package decomp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/mp"
	"hybriddem/internal/particle"
)

func mustLayout(t *testing.T, box geom.Box, rc float64, p, bpp int) *Layout {
	t.Helper()
	l, err := NewLayout(box, rc, p, bpp)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutBlockAssignmentBijective(t *testing.T) {
	box := geom.NewBox(2, 10, geom.Periodic)
	for _, p := range []int{1, 2, 4, 6} {
		for _, bpp := range []int{1, 2, 4} {
			l := mustLayout(t, box, 0.5, p, bpp)
			if l.B != p*bpp {
				t.Errorf("P=%d bpp=%d: B=%d", p, bpp, l.B)
			}
			counts := make([]int, p)
			var all []int
			for r := 0; r < p; r++ {
				ids := l.BlocksOfRank(r)
				counts[r] = len(ids)
				all = append(all, ids...)
				for _, id := range ids {
					if l.RankOfBlock(id) != r {
						t.Errorf("block %d listed for rank %d but owned by %d", id, r, l.RankOfBlock(id))
					}
				}
			}
			sort.Ints(all)
			for i, id := range all {
				if id != i {
					t.Fatalf("P=%d bpp=%d: blocks not a partition: %v", p, bpp, all)
				}
			}
			// Block-cyclic deal: every rank gets exactly B/P blocks.
			for r, c := range counts {
				if c != bpp {
					t.Errorf("P=%d bpp=%d: rank %d owns %d blocks", p, bpp, r, c)
				}
			}
		}
	}
}

func TestLayoutRegionsTileTheBox(t *testing.T) {
	box := geom.NewBox(3, 6, geom.Periodic)
	l := mustLayout(t, box, 0.5, 4, 2)
	vol := 0.0
	for id := 0; id < l.B; id++ {
		_, span := l.CoreRegion(id)
		v := 1.0
		for k := 0; k < 3; k++ {
			v *= span[k]
		}
		vol += v
	}
	if math.Abs(vol-box.Volume()) > 1e-9 {
		t.Errorf("core regions cover %g of %g", vol, box.Volume())
	}
}

func TestLayoutBlockOfPosConsistent(t *testing.T) {
	box := geom.NewBox(2, 7, geom.Periodic)
	l := mustLayout(t, box, 0.4, 3, 3)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := geom.Vec{rng.Float64() * 7, rng.Float64() * 7}
		id := l.BlockOfPos(p)
		origin, span := l.CoreRegion(id)
		for k := 0; k < 2; k++ {
			if p[k] < origin[k]-1e-12 || p[k] > origin[k]+span[k]+1e-12 {
				t.Fatalf("pos %v assigned to block %d [%v,%v)", p, id, origin, span)
			}
		}
	}
}

func TestLayoutRejectsTooFineBlocks(t *testing.T) {
	box := geom.NewBox(2, 1, geom.Periodic)
	if _, err := NewLayout(box, 0.3, 4, 4); err == nil {
		t.Error("expected error when block edge < rc")
	}
	if _, err := NewLayout(box, -1, 1, 1); err == nil {
		t.Error("expected error for negative cutoff")
	}
	if _, err := NewLayout(box, 0.1, 0, 1); err == nil {
		t.Error("expected error for zero ranks")
	}
}

func TestNeighborShiftsOnlyAtWrap(t *testing.T) {
	box := geom.NewBox(1, 8, geom.Periodic)
	l := mustLayout(t, box, 0.5, 4, 1) // 4 blocks along x
	// Interior neighbour: no shift.
	nb, shift, ok := l.Neighbor(1, 0, 1)
	if !ok || nb != 2 || shift != (geom.Vec{}) {
		t.Errorf("interior neighbour: %d %v %v", nb, shift, ok)
	}
	// Wrap below: block 0's lower neighbour is 3, data shifts by -L.
	nb, shift, ok = l.Neighbor(0, 0, -1)
	if !ok || nb != 3 || shift[0] != -8 {
		t.Errorf("wrap low: %d %v %v", nb, shift, ok)
	}
	// Wrap above.
	nb, shift, ok = l.Neighbor(3, 0, 1)
	if !ok || nb != 0 || shift[0] != +8 {
		t.Errorf("wrap high: %d %v %v", nb, shift, ok)
	}
}

func TestNeighborWalledEdges(t *testing.T) {
	box := geom.NewBox(1, 8, geom.Reflecting)
	l := mustLayout(t, box, 0.5, 4, 1)
	if _, _, ok := l.Neighbor(0, 0, -1); ok {
		t.Error("walled lower edge has a neighbour")
	}
	if _, _, ok := l.Neighbor(3, 0, 1); ok {
		t.Error("walled upper edge has a neighbour")
	}
	// Ext region clipped at walls.
	origin, span := l.ExtRegion(0)
	if origin[0] != 0 || math.Abs(span[0]-2.5) > 1e-12 {
		t.Errorf("clipped ext region: %v %v", origin, span)
	}
}

// globalSystem builds a serial reference configuration.
func globalSystem(n, d int, box geom.Box, seed int64, vmax float64) *particle.Store {
	ps := particle.New(d, n)
	rng := rand.New(rand.NewSource(seed))
	if vmax > 0 {
		particle.FillUniformVel(ps, n, box, vmax, 0, rng)
	} else {
		particle.FillUniform(ps, n, box, 0, rng)
	}
	return ps
}

func TestFillUniformPartitionsExactly(t *testing.T) {
	const n = 500
	box := geom.NewBox(2, 10, geom.Periodic)
	l := mustLayout(t, box, 0.5, 4, 2)
	seen := make([]int, n)
	mp.Run(4, nil, func(c *mp.Comm) {
		dm := NewDomain(l, c, false)
		dm.FillUniform(n, 7, 0.5)
		for _, b := range dm.Blocks {
			for i := 0; i < b.NCore; i++ {
				seen[b.PS.ID[i]]++
				if l.BlockOfPos(b.PS.PosAt(i)) != b.ID {
					t.Errorf("particle %d in wrong block", b.PS.ID[i])
				}
			}
		}
	})
	for id, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("particle %d owned %d times", id, cnt)
		}
	}
}

// TestHaloReplicationExact: after Rebuild, each block's halo must
// contain exactly the foreign particles within its extended region
// (up to the half-open slab edges).
func TestHaloReplicationExact(t *testing.T) {
	const n = 800
	for _, bc := range []geom.Boundary{geom.Periodic, geom.Reflecting} {
		box := geom.NewBox(2, 10, bc)
		rc := 0.6
		l := mustLayout(t, box, rc, 4, 1)
		ref := globalSystem(n, 2, box, 3, 0)
		mp.Run(4, nil, func(c *mp.Comm) {
			dm := NewDomain(l, c, false)
			dm.FillUniform(n, 3, 0)
			dm.Rebuild(false)
			for _, b := range dm.Blocks {
				// Expected halo IDs: particles of other blocks whose
				// (possibly wrapped) image lies inside the ext region.
				want := map[int32]bool{}
				for i := 0; i < n; i++ {
					if l.BlockOfPos(ref.PosAt(i)) == b.ID {
						continue
					}
					for _, img := range images(ref.PosAt(i), box) {
						inside := true
						for k := 0; k < 2; k++ {
							if img[k] < b.ExtOrigin[k] || img[k] >= b.ExtOrigin[k]+b.ExtSpan[k] {
								inside = false
								break
							}
						}
						if inside {
							want[ref.ID[i]] = true
						}
					}
				}
				got := map[int32]bool{}
				for i := b.NCore; i < b.PS.Len(); i++ {
					got[b.PS.ID[i]] = true
				}
				for id := range want {
					if !got[id] {
						t.Errorf("bc=%v block %d: missing halo particle %d", bc, b.ID, id)
					}
				}
				for id := range got {
					if !want[id] {
						t.Errorf("bc=%v block %d: spurious halo particle %d", bc, b.ID, id)
					}
				}
			}
		})
	}
}

// images returns the periodic images of p relevant for halo overlap
// (the position itself plus ±L shifts per dimension).
func images(p geom.Vec, box geom.Box) []geom.Vec {
	out := []geom.Vec{p}
	if box.BC != geom.Periodic {
		return out
	}
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			q := p
			q[0] += float64(dx) * box.Len[0]
			q[1] += float64(dy) * box.Len[1]
			out = append(out, q)
		}
	}
	return out
}

// TestDecomposedEnergyMatchesSerial: core links at weight 1 plus halo
// links at weight 1/2, summed over all blocks and ranks, must equal
// the serial potential energy.
func TestDecomposedEnergyMatchesSerial(t *testing.T) {
	const n = 600
	for _, p := range []int{1, 2, 4} {
		for _, bpp := range []int{1, 2} {
			box := geom.NewBox(2, 10, geom.Periodic)
			rc := 0.55
			sp := force.Spring{Diameter: rc / 1.5, K: 30}
			l := mustLayout(t, box, rc, p, bpp)

			// Serial reference energy.
			ref := globalSystem(n, 2, box, 5, 0)
			g := cell.NewGrid(2, geom.Vec{}, box.Len, rc, true)
			g.Bin(&ref.Pos, n, nil)
			list := g.BuildLinks(&ref.Pos, n, n, rc*rc, box, nil)
			ref.ZeroForces()
			eSerial := sp.Accumulate(ref, list.Links, n, box, 1, nil)

			var eGlobal float64
			mp.Run(p, nil, func(c *mp.Comm) {
				dm := NewDomain(l, c, false)
				dm.FillUniform(n, 5, 0)
				dm.Rebuild(true)
				e := 0.0
				for _, b := range dm.Blocks {
					b.PS.ZeroForces()
					e += sp.Accumulate(b.PS, b.List.CoreLinks(), b.NCore, dm.PlainBox(), 1, nil)
					e += sp.Accumulate(b.PS, b.List.HaloLinks(), b.NCore, dm.PlainBox(), 0.5, nil)
				}
				tot := c.AllreduceScalar(e, mp.Sum)
				if c.Rank() == 0 {
					eGlobal = tot
				}
			})
			if math.Abs(eGlobal-eSerial) > 1e-9*math.Abs(eSerial) {
				t.Errorf("P=%d bpp=%d: energy %g vs serial %g", p, bpp, eGlobal, eSerial)
			}
		}
	}
}

func TestRefreshHalosTracksMotion(t *testing.T) {
	const n = 400
	box := geom.NewBox(2, 10, geom.Periodic)
	rc := 0.6
	l := mustLayout(t, box, rc, 4, 1)
	mp.Run(4, nil, func(c *mp.Comm) {
		dm := NewDomain(l, c, false)
		dm.FillUniform(n, 9, 0)
		dm.Rebuild(false)
		// Move every core particle deterministically by a small,
		// ID-dependent offset, then refresh.
		shift := func(id int32) float64 { return 1e-3 * float64(id%17) }
		for _, b := range dm.Blocks {
			for i := 0; i < b.NCore; i++ {
				b.PS.Pos[0][i] += shift(b.PS.ID[i])
			}
		}
		dm.RefreshHalos()
		// Every halo copy must now match its home particle's new
		// position modulo the periodic shift.
		ref := globalSystem(n, 2, box, 9, 0)
		for _, b := range dm.Blocks {
			for i := b.NCore; i < b.PS.Len(); i++ {
				id := b.PS.ID[i]
				wantX := ref.Pos[0][id] + shift(id)
				gotX := b.PS.Pos[0][i]
				// Remove any ±L ghost shift.
				diff := math.Mod(math.Abs(gotX-wantX), box.Len[0])
				if diff > 1e-9 && math.Abs(diff-box.Len[0]) > 1e-9 {
					t.Errorf("halo copy of %d at x=%g, want %g (mod L)", id, gotX, wantX)
				}
			}
		}
	})
}

func TestMigrationConservesParticles(t *testing.T) {
	const n = 500
	box := geom.NewBox(2, 10, geom.Periodic)
	rc := 0.6
	l := mustLayout(t, box, rc, 4, 2)
	counts := make(chan int, 4)
	mp.Run(4, nil, func(c *mp.Comm) {
		dm := NewDomain(l, c, false)
		dm.FillUniform(n, 11, 0)
		dm.Rebuild(false)
		// Kick particles far enough that many change blocks.
		rng := rand.New(rand.NewSource(int64(100)))
		for _, b := range dm.Blocks {
			for i := 0; i < b.NCore; i++ {
				b.PS.Pos[0][i] += (rng.Float64() - 0.5) * 5
				b.PS.Pos[1][i] += (rng.Float64() - 0.5) * 5
			}
		}
		dm.Rebuild(false)
		local := 0
		ids := map[int32]bool{}
		for _, b := range dm.Blocks {
			local += b.NCore
			for i := 0; i < b.NCore; i++ {
				if ids[b.PS.ID[i]] {
					t.Errorf("duplicate particle %d on rank %d", b.PS.ID[i], c.Rank())
				}
				ids[b.PS.ID[i]] = true
				if l.BlockOfPos(b.PS.PosAt(i)) != b.ID {
					t.Errorf("particle %d not in home block after migration", b.PS.ID[i])
				}
				if !box.Contains(b.PS.PosAt(i)) {
					t.Errorf("particle %d not wrapped: %v", b.PS.ID[i], b.PS.PosAt(i))
				}
			}
		}
		counts <- local
	})
	close(counts)
	total := 0
	for c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("migration lost particles: %d of %d", total, n)
	}
}

func TestReorderPreservesIdentity(t *testing.T) {
	const n = 300
	box := geom.NewBox(2, 10, geom.Periodic)
	l := mustLayout(t, box, 0.6, 2, 1)
	mp.Run(2, nil, func(c *mp.Comm) {
		dm := NewDomain(l, c, false)
		dm.FillUniform(n, 13, 0)
		before := map[int32]geom.Vec{}
		for _, b := range dm.Blocks {
			for i := 0; i < b.NCore; i++ {
				before[b.PS.ID[i]] = b.PS.PosAt(i)
			}
		}
		dm.Rebuild(true) // with reordering
		after := map[int32]geom.Vec{}
		for _, b := range dm.Blocks {
			for i := 0; i < b.NCore; i++ {
				after[b.PS.ID[i]] = b.PS.PosAt(i)
			}
		}
		if len(before) != len(after) {
			t.Fatalf("reorder changed particle count: %d vs %d", len(before), len(after))
		}
		for id, p := range before {
			if after[id] != p {
				t.Errorf("reorder moved particle %d: %v -> %v", id, p, after[id])
			}
		}
	})
}

func TestReorderImprovesLocality(t *testing.T) {
	const n = 5000
	box := geom.NewBox(2, 10, geom.Periodic)
	l := mustLayout(t, box, 0.3, 1, 1)
	meanDist := func(reorder bool) float64 {
		var out float64
		mp.Run(1, nil, func(c *mp.Comm) {
			dm := NewDomain(l, c, false)
			dm.FillUniform(n, 17, 0)
			dm.Rebuild(reorder)
			var sum, cnt int64
			for _, b := range dm.Blocks {
				for _, lk := range b.List.Links {
					d := int64(lk.I) - int64(lk.J)
					if d < 0 {
						d = -d
					}
					sum += d
					cnt++
				}
			}
			out = float64(sum) / float64(cnt)
		})
		return out
	}
	unordered := meanDist(false)
	ordered := meanDist(true)
	if ordered*5 > unordered {
		t.Errorf("reordering did not collapse locality metric: %g -> %g", unordered, ordered)
	}
}

// TestMaxCoreDisp2DetectsMotion: the rebuild vote is the max-allreduce
// of MaxCoreDisp2, so a particle moved past the skin on one rank must
// flip the collective answer on both.
func TestMaxCoreDisp2DetectsMotion(t *testing.T) {
	const n = 200
	const skin = 0.1
	box := geom.NewBox(2, 10, geom.Periodic)
	l := mustLayout(t, box, 0.6, 2, 1)
	mp.Run(2, nil, func(c *mp.Comm) {
		dm := NewDomain(l, c, false)
		dm.FillUniform(n, 19, 0)
		dm.Rebuild(false)
		if d2 := c.AllreduceScalar(dm.MaxCoreDisp2(), mp.Max); d2 >= skin*skin {
			t.Errorf("fresh list reported displacement^2 %g", d2)
		}
		if c.Rank() == 0 {
			for _, b := range dm.Blocks {
				if b.NCore > 0 {
					b.PS.Pos[0][0] += 0.2
					break
				}
			}
		}
		if d2 := c.AllreduceScalar(dm.MaxCoreDisp2(), mp.Max); d2 < skin*skin {
			t.Errorf("stale list reported displacement^2 %g below skin^2", d2)
		}
	})
}

func TestSelfNeighborPeriodicSingleBlock(t *testing.T) {
	// One block per dimension with periodic BC: the block is its own
	// neighbour through the wrap and must build self-halos.
	const n = 150
	box := geom.NewBox(2, 10, geom.Periodic)
	rc := 0.8
	l := mustLayout(t, box, rc, 1, 1)
	sp := force.Spring{Diameter: rc / 1.5, K: 30}

	ref := globalSystem(n, 2, box, 21, 0)
	g := cell.NewGrid(2, geom.Vec{}, box.Len, rc, true)
	g.Bin(&ref.Pos, n, nil)
	list := g.BuildLinks(&ref.Pos, n, n, rc*rc, box, nil)
	eSerial := sp.Accumulate(ref, list.Links, n, box, 1, nil)

	mp.Run(1, nil, func(c *mp.Comm) {
		dm := NewDomain(l, c, false)
		dm.FillUniform(n, 21, 0)
		dm.Rebuild(false)
		b := dm.Blocks[0]
		if b.NumHalo() == 0 {
			t.Fatal("self-halo not built for periodic single block")
		}
		b.PS.ZeroForces()
		e := sp.Accumulate(b.PS, b.List.CoreLinks(), b.NCore, dm.PlainBox(), 1, nil)
		e += sp.Accumulate(b.PS, b.List.HaloLinks(), b.NCore, dm.PlainBox(), 0.5, nil)
		if math.Abs(e-eSerial) > 1e-9*math.Abs(eSerial) {
			t.Errorf("single-block energy %g vs serial %g", e, eSerial)
		}
	})
}

func TestDomainCounters(t *testing.T) {
	const n = 300
	box := geom.NewBox(2, 10, geom.Periodic)
	l := mustLayout(t, box, 0.6, 2, 2)
	mp.Run(2, nil, func(c *mp.Comm) {
		dm := NewDomain(l, c, false)
		dm.FillUniform(n, 23, 0)
		dm.Rebuild(true)
		if dm.TC.LinkBuilds == 0 || dm.TC.CellBinOps == 0 {
			t.Error("rebuild counters not incremented")
		}
		if dm.TC.ReorderMoves == 0 {
			t.Error("reorder counter not incremented")
		}
		if dm.NumCore() == 0 || dm.NumLinks() == 0 {
			t.Error("empty domain after fill")
		}
	})
}
