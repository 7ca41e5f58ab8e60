package shm

import (
	"strings"
	"sync/atomic"
	"testing"

	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// twoParticleSystem builds the minimal deterministic system: two core
// particles within the cutoff joined by one link.
func twoParticleSystem() (*particle.Store, []cell.Link, geom.Box, force.Spring) {
	box := geom.NewBox(2, 1.0, geom.Reflecting)
	ps := particle.New(2, 2)
	ps.Append(geom.Vec{0.50, 0.50}, geom.Vec{}, 0)
	ps.Append(geom.Vec{0.55, 0.50}, geom.Vec{}, 1)
	sp := force.Spring{Diameter: 0.09, K: 40, Damp: 0.5}
	return ps, []cell.Link{{I: 0, J: 1}}, box, sp
}

func expectPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		e := recover()
		if e == nil {
			t.Fatalf("no panic; want one containing %q", substr)
		}
		if s, ok := e.(string); !ok || !strings.Contains(s, substr) {
			t.Fatalf("panic %v; want one containing %q", e, substr)
		}
	}()
	fn()
}

// TestAccumulateTeamMismatchPanics is the regression test for the
// silent conflict-table mismatch: Prepare built the selected-atomic
// table for one team size, and Accumulate trusted whatever team it was
// handed, racing unprotected on particles the table thought private.
// It must refuse loudly instead.
func TestAccumulateTeamMismatchPanics(t *testing.T) {
	ps, links, box, sp := twoParticleSystem()
	u := NewUpdater(SelectedAtomic)
	u.Prepare(links, ps.Len(), 2, 2)
	tm := NewTeam(3, Costs{})
	defer tm.Close()
	expectPanic(t, "prepared for T=2", func() {
		u.Accumulate(tm, sp, ps, links, len(links), 2, box)
	})
}

// TestAccumulateLinkCountMismatchPanics: running over a different link
// list than Prepare saw redistributes links across threads and
// invalidates the conflict table; it must panic, not race.
func TestAccumulateLinkCountMismatchPanics(t *testing.T) {
	ps, links, box, sp := twoParticleSystem()
	u := NewUpdater(SelectedAtomic)
	u.Prepare(links, ps.Len(), 2, 1)
	tm := NewTeam(1, Costs{})
	defer tm.Close()
	grown := append(append([]cell.Link(nil), links...), cell.Link{I: 0, J: 1})
	expectPanic(t, "over 1 links", func() {
		u.Accumulate(tm, sp, ps, grown, len(grown), 2, box)
	})
}

// TestAbandonedLogDiscarded is the regression test for state a dead
// region leaves behind in a reused updater: the owner-write loop takes
// no locks, so the state at risk is a thread's update log. A hook
// panics on thread 1 mid-chunk — on the chunk's last halo link, after
// the core span has logged the thread's shared-particle updates; the
// half-filled log must not leak into the next run, which must match
// the serial kernel bit for bit.
func TestAbandonedLogDiscarded(t *testing.T) {
	const n, halo, T = 200, 30, 2
	ps, list, box, sp := buildForceSystem(41, n, halo, 2)
	ref, _ := raceRef(ps, list, box, sp, n)
	lo, hi := chunk(len(list.Links), T, 1)
	if lo >= list.NCore || hi <= list.NCore {
		t.Fatalf("thread 1's chunk [%d,%d) does not straddle the core/halo boundary %d", lo, hi, list.NCore)
	}
	victim := list.Links[hi-1]
	idI, idJ := ps.ID[victim.I], ps.ID[victim.J]
	for _, m := range []Method{Atomic, SelectedAtomic, Unprotected} {
		tm := NewTeam(T, Costs{})
		u := NewUpdater(m)
		u.Prepare(list.Links, ps.Len(), n, T)
		work := ps.Clone()
		work.ZeroForces()
		PairForceHook = func(_ Method, i, j int32, fi geom.Vec) geom.Vec {
			if i == idI && j == idJ {
				panic("injected mid-chunk failure")
			}
			return fi
		}
		expectPanic(t, "thread 1 panicked", func() {
			u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
		})
		PairForceHook = nil
		if len(u.own.th[1].split.Log) == 0 {
			t.Fatalf("%v: thread 1 logged nothing before the failure; the test needs a half-filled log", m)
		}

		u.Prepare(list.Links, ps.Len(), n, T)
		work.ZeroForces()
		u.Accumulate(tm, sp, work, list.Links, list.NCore, n, box)
		assertForcesBitEqual(t, m.String(), ref, work, n)
		tm.Close()
	}
}

// TestRegionAbortThenReuse: a panicked region aborts the barrier; the
// team must still be usable for subsequent regions (the driver's
// recovery path re-Prepares and runs on).
func TestRegionAbortThenReuse(t *testing.T) {
	tm := NewTeam(3, Costs{})
	defer tm.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		tm.Region(func(th *Thread) {
			if th.ID == 1 {
				panic("boom")
			}
			th.Barrier()
		})
	}()
	var mask int64
	tm.Region(func(th *Thread) {
		atomic.AddInt64(&mask, 1<<uint(th.ID))
	})
	if mask != 7 {
		t.Fatalf("post-abort region ran thread mask %b, want 111", mask)
	}
}

// TestClosedTeamPanics: running a region on a closed team must fail
// loudly rather than hang on released workers.
func TestClosedTeamPanics(t *testing.T) {
	tm := NewTeam(2, Costs{})
	tm.Region(func(th *Thread) {})
	tm.Close()
	expectPanic(t, "closed team", func() {
		tm.Region(func(th *Thread) {})
	})
}
