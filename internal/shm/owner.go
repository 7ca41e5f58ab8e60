package shm

import (
	"hybriddem/internal/cell"
	"hybriddem/internal/force"
	"hybriddem/internal/geom"
	"hybriddem/internal/particle"
)

// ownerWrites is the per-thread state of the owner-write loop that
// Updater and FusedUpdater run for the per-update methods. Thread 0
// writes every particle it touches; thread t >= 1 defers its updates
// of shared particles to its log, one segment per store it visits, and
// the master replays the logs in thread order after the join. The
// charge counts are fixed by the link list and the conflict table, so
// Prepare computes them once per rebuild.
type ownerWrites struct {
	th []ownerThread
}

// ownerThread is one thread's share of the owner-write state.
type ownerThread struct {
	split   force.Split // thread 0 never defers
	segs    []logSeg    // where each store's log entries end
	taken   int64       // updates charged as locked
	avoided int64       // updates charged as plain
	need    int         // worst-case log length
}

// logSeg ends one store's run of entries in a thread's log.
type logSeg struct {
	ps  *particle.Store
	end int
}

// reset sizes the state for T threads visiting up to stores stores and
// clears the counts, reusing storage.
func (o *ownerWrites) reset(T, stores int) {
	if cap(o.th) < T {
		o.th = append(o.th[:cap(o.th)], make([]ownerThread, T-cap(o.th))...)
	}
	o.th = o.th[:T]
	for t := range o.th {
		ot := &o.th[t]
		ot.taken, ot.avoided, ot.need = 0, 0, 0
		if cap(ot.segs) < stores {
			ot.segs = make([]logSeg, 0, stores)
		}
	}
}

// count adds the charges of thread t's links to its totals: every
// update is one lock under Atomic, updates of shared particles are
// locks under SelectedAtomic, and Unprotected locks nothing. Updates
// of shared particles also size the thread's log.
func (o *ownerWrites) count(t int, m Method, links []cell.Link, shared []bool, nCore int) {
	var all, sh int64
	for _, l := range links {
		all++
		if shared[l.I] {
			sh++
		}
		if int(l.J) < nCore {
			all++
			if shared[l.J] {
				sh++
			}
		}
	}
	ot := &o.th[t]
	switch m {
	case Atomic:
		ot.taken += all
	case SelectedAtomic:
		ot.taken += sh
		ot.avoided += all - sh
	default:
		ot.avoided += all
	}
	ot.need += int(sh)
}

// allocLogs grows each deferring thread's log to its worst case.
func (o *ownerWrites) allocLogs() {
	for t := 1; t < len(o.th); t++ {
		if sp := &o.th[t].split; cap(sp.Log) < o.th[t].need {
			sp.Log = make([]force.Update, 0, o.th[t].need)
		}
	}
}

// setHook installs the pair-force hook for the next region, bound to
// the updater's method. The binding closure allocates, which only
// fault-injection tests pay.
func (o *ownerWrites) setHook(m Method, hook func(m Method, idI, idJ int32, fi geom.Vec) geom.Vec) {
	var h func(idI, idJ int32, fi geom.Vec) geom.Vec
	if hook != nil {
		h = func(idI, idJ int32, fi geom.Vec) geom.Vec { return hook(m, idI, idJ, fi) }
	}
	for t := range o.th {
		o.th[t].split.Hook = h
	}
}

// begin empties thread t's log (a region that panicked may have left
// it half filled) and returns the thread's split.
func (o *ownerWrites) begin(t int) *force.Split {
	ot := &o.th[t]
	ot.split.Log = ot.split.Log[:0]
	ot.segs = ot.segs[:0]
	return &ot.split
}

// endSpan closes thread t's log segment for the store it just ran.
func (o *ownerWrites) endSpan(t int, ps *particle.Store) {
	if t > 0 {
		ot := &o.th[t]
		ot.segs = append(ot.segs, logSeg{ps: ps, end: len(ot.split.Log)})
	}
}

// replay adds the logged updates to their stores in thread order
// 1..T-1, completing every shared particle's sum in link order. It runs
// on the master after the join and is neither a barrier nor a modelled
// charge.
func (o *ownerWrites) replay() {
	for _, ot := range o.th[1:] {
		log := ot.split.Log
		start := 0
		for _, sg := range ot.segs {
			force.Replay(&sg.ps.Frc, sg.ps.D, log[start:sg.end])
			start = sg.end
		}
	}
}

// charge records thread th's counters and advances its virtual clock
// by the modelled cost of its share: link and contact work plus the
// plain and locked update counts of the method.
func (o *ownerWrites) charge(th *Thread, tl *spanTally) {
	costs := th.team.Costs
	hw := costs.haloWork()
	taken, avoided := o.th[th.ID].taken, o.th[th.ID].avoided
	th.TC.ForceEvals += tl.nl
	th.TC.LinkVisits += tl.nl
	th.TC.Contacts += tl.contacts + tl.contactsHalo
	th.TC.ForceUpdates += taken + avoided
	th.TC.AtomicsTaken += taken
	th.TC.AtomicsAvoided += avoided
	th.TC.LinkIndexDistSum += tl.distSum
	th.TC.LinkIndexDistN += tl.nl
	th.Compute(tl.effLinks*costs.PerLink +
		(float64(tl.contacts)+float64(tl.contactsHalo)*hw)*costs.PerContact +
		float64(avoided)*costs.PerUpdate +
		float64(taken)*(costs.PerUpdate+costs.AtomicTaken))
}

// spanTally accumulates one thread's loop statistics over the spans of
// its chunk. The potential energy runs through the spans in link
// order: core links at full weight, halo links at half.
type spanTally struct {
	epot                   float64
	contacts, contactsHalo int64
	distSum, nl            int64
	effLinks               float64 // core links plus halo-weighted halo links
}

// run executes links[lo:hi] of one store on the pair kernel. Links
// before nCoreLinks are core links, the rest halo links. A span that
// reaches the halo links waits at gate (when non-nil) after its core
// part; run returns the gate still to be waited at, nil once passed.
func (tl *spanTally) run(th *Thread, sp force.Spring, box geom.Box, ps *particle.Store, links []cell.Link, lo, hi, nCoreLinks, nCore int, split *force.Split, gate *HaloGate) *HaloGate {
	mid := min(max(nCoreLinks, lo), hi)
	var c, ds int64
	if mid > lo {
		tl.epot, c, ds = sp.AccumulateSplit(ps, links[lo:mid], nCore, box, tl.epot, 1, split)
		tl.contacts += c
		tl.distSum += ds
	}
	if gate != nil && (hi > nCoreLinks || lo >= nCoreLinks) {
		gate.Wait(th)
		gate = nil
	}
	if hi > mid {
		tl.epot, c, ds = sp.AccumulateSplit(ps, links[mid:hi], nCore, box, tl.epot, 0.5, split)
		tl.contactsHalo += c
		tl.distSum += ds
	}
	tl.nl += int64(hi - lo)
	tl.effLinks += float64(mid-lo) + float64(hi-mid)*th.team.Costs.haloWork()
	return gate
}
