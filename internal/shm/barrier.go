package shm

import "sync"

// clockBarrier is a reusable generation barrier for exactly n threads
// that additionally equalises virtual clocks: every thread leaves with
// the maximum arriving clock plus the per-barrier cost.
type clockBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	cost    float64
	arrived int
	gen     int
	maxT    float64
	relT    float64
	aborted bool
}

func newClockBarrier(n int, cost float64) *clockBarrier {
	b := &clockBarrier{n: n, cost: cost}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all n threads have arrived, then releases them
// with equalised clocks.
func (b *clockBarrier) await(th *Thread) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if th.clock > b.maxT {
		b.maxT = th.clock
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.relT = b.maxT + b.cost
		b.arrived = 0
		b.maxT = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for b.gen == gen && !b.aborted {
			b.cond.Wait()
		}
		if b.aborted {
			panic("shm: barrier abandoned by a panicked thread")
		}
	}
	th.clock = b.relT
}

// abort releases all waiters with a panic; called when a sibling
// thread dies so the region's join does not deadlock.
func (b *clockBarrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// isAborted reports whether a thread of the current region died.
func (b *clockBarrier) isAborted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.aborted
}

// reset clears any aborted state and half-completed arrival counts so
// the barrier is reusable by the next region. Called at region entry,
// when no thread can be waiting.
func (b *clockBarrier) reset() {
	b.mu.Lock()
	b.aborted = false
	b.arrived = 0
	b.maxT = 0
	b.relT = 0
	b.mu.Unlock()
}
