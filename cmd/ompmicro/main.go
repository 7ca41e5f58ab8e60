// Command ompmicro is this module's analogue of the EPCC OpenMP
// Microbenchmark Suite (the paper's reference [10]): it measures the
// wall-clock overhead of the shm runtime's synchronisation primitives
// on the host, prints the modelled overheads of the three virtual
// platforms, and combines them into the paper's Section 9.3 estimate
// of OpenMP synchronisation cost per block per iteration. An atomic
// update row measures a host CAS-spinlock add beside the modelled
// per-update lock cost: the shm force loop charges that cost but takes
// no locks on the host, so this is where the real lock cost is
// measured.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"hybriddem/internal/machine"
	"hybriddem/internal/shm"
)

// measure times fn() over reps repetitions and returns seconds per
// call, subtracting nothing: callers compare against a reference loop.
func measure(reps int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(reps)
}

// spinCell is one force accumulator guarded by a CAS spinlock: the
// host form of the protected update the cost model charges as an
// atomic.
type spinCell struct {
	lock atomic.Int32
	v    float64
}

func (c *spinCell) add(x float64) {
	for !c.lock.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
	c.v += x
	c.lock.Store(0)
}

// atomicUpdate returns the wall time per spinlock add as seen by each
// of T threads adding to one shared cell (T=1: uncontended).
func atomicUpdate(T, reps int) float64 {
	tm := shm.NewTeam(T, shm.Costs{})
	defer tm.Close()
	var c spinCell
	const inner = 1000
	return measure(reps/20+1, func() {
		tm.Region(func(th *shm.Thread) {
			for i := 0; i < inner; i++ {
				c.add(1)
			}
		})
	}) / inner
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ompmicro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		maxT = fs.Int("maxt", 8, "largest team size to measure")
		reps = fs.Int("reps", 2000, "repetitions per measurement")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fmt.Fprintln(stdout, "== host wall-clock overheads of the shm runtime ==")
	fmt.Fprintf(stdout, "%4s %16s %16s %16s\n", "T", "region fork/join", "barrier", "critical")
	for T := 1; T <= *maxT; T *= 2 {
		tm := shm.NewTeam(T, shm.Costs{})
		region := measure(*reps, func() {
			tm.Region(func(th *shm.Thread) {})
		})
		// EPCC style: many operations inside one region so the
		// fork/join cost amortises away.
		const inner = 200
		barrier := measure(*reps/20+1, func() {
			tm.Region(func(th *shm.Thread) {
				for i := 0; i < inner; i++ {
					th.Barrier()
				}
			})
		}) / inner
		critical := measure(*reps/20+1, func() {
			tm.Region(func(th *shm.Thread) {
				for i := 0; i < inner; i++ {
					tm.Critical(th, func() {})
				}
			})
		}) / inner
		fmt.Fprintf(stdout, "%4d %14.2fus %14.2fus %14.2fus\n",
			T, region*1e6, barrier*1e6, critical*1e6)
	}

	fmt.Fprintln(stdout, "\n== modelled per-event overheads of the virtual platforms ==")
	fmt.Fprintf(stdout, "%-5s %12s %14s %14s %14s %14s\n",
		"plat", "fork/join", "barrier(T=4)", "atomic(T=4)", "critical", "red. word(T=4)")
	for _, pf := range machine.Platforms() {
		fmt.Fprintf(stdout, "%-5s %10.1fus %12.1fus %12.3fus %12.1fus %14.1fns\n",
			pf.Name,
			pf.ForkJoin*1e6,
			pf.BarrierCost(4)*1e6,
			pf.AtomicCost(4)*1e6,
			pf.CriticalOp*1e6,
			pf.ReductionWordCost(4)*1e9)
	}
	fmt.Fprintf(stdout, "%-5s %12s %14s %12.3fus %14s %14s  <- atomic update: CAS-spinlock add, T=4 contending (%.3fus uncontended)\n",
		"host", "", "", atomicUpdate(4, *reps)*1e6, "", "", atomicUpdate(1, *reps)*1e6)

	// Section 9.3: the hybrid code enters roughly one region per block
	// (force) plus two fused regions per iteration, each with its
	// implicit join barrier. Price one block's worth on each platform.
	fmt.Fprintln(stdout, "\n== Section 9.3 estimate: OpenMP sync cost per block per iteration ==")
	for _, pf := range machine.Platforms() {
		perBlock := pf.ForkJoin + pf.BarrierCost(4)
		fmt.Fprintf(stdout, "%-5s ~%.0f us per block per iteration (paper estimates ~50 us on its hardware)\n",
			pf.Name, perBlock*1e6)
	}
	fmt.Fprintln(stdout, "\nwith B/P <= 32 this amounts to a couple of milliseconds per iteration,")
	fmt.Fprintln(stdout, "\"only ... a couple of percent\" of the >100 ms iterations — the paper's")
	fmt.Fprintln(stdout, "argument that thread synchronisation is NOT the main hybrid overhead.")
	return 0
}
