package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hybriddem/internal/core"
	"hybriddem/internal/geom"
	"hybriddem/internal/machine"
	"hybriddem/internal/shm"
	"hybriddem/internal/verify"
)

// simSpec is one simulation workload: an execution layout plus the
// initial state it starts from.
type simSpec struct {
	mode       core.Mode
	P, T, BPP  int
	D, N       int
	vel        float64 // initial velocity components drawn from [-vel, vel]
	opSteps    int     // measured steps per core.Run call
	checkSteps int     // steps compared against serial mode
}

// config builds the workload's run configuration. The initial state is
// drawn here from seed, so the program receives only explicit inputs.
func (s simSpec) config(seed int64) core.Config {
	cfg := core.Default(s.D, s.N)
	cfg.Seed = seed
	cfg.Mode = s.mode
	cfg.P, cfg.T, cfg.BlocksPerProc = s.P, s.T, s.BPP
	cfg.Platform = machine.CompaqES40()
	cfg.Init = initState(cfg.D, cfg.N, cfg.L, s.vel, seed)
	return cfg
}

// initState places n particles uniformly in the box (the paper's
// density, since core.Default chose L) with velocity components
// uniform in [-vel, vel].
func initState(d, n int, l, vel float64, seed int64) *core.State {
	rng := rand.New(rand.NewSource(seed))
	st := &core.State{Pos: make([]geom.Vec, n), Vel: make([]geom.Vec, n)}
	for i := 0; i < n; i++ {
		for k := 0; k < d; k++ {
			st.Pos[i][k] = rng.Float64() * l
			st.Vel[i][k] = (2*rng.Float64() - 1) * vel
		}
	}
	return st
}

// opResult is what one timed core.Run call yields.
type opResult struct {
	res     *core.Result
	stepMs  []float64 // host time of steps 1.. (between OnStep callbacks)
	firstMs float64   // call into core.Run until the first OnStep
	totalMs float64   // call into core.Run until it returned
	energy  []float64 // epot+ekin after every step
}

// timedRun runs cfg for steps measured iterations, timing every step
// between consecutive OnStep callbacks. onStep, when non-nil, also sees
// each step's start and end time (the tracer uses it).
func timedRun(cfg core.Config, steps int, onStep func(t0, t1 time.Time)) (*opResult, error) {
	op := &opResult{stepMs: make([]float64, 0, steps), energy: make([]float64, 0, steps)}
	start := time.Now()
	last := start
	cfg.OnStep = func(iter int, epot, ekin float64) {
		now := time.Now()
		if len(op.energy) == 0 {
			op.firstMs = ms(now.Sub(start))
		} else {
			op.stepMs = append(op.stepMs, ms(now.Sub(last)))
		}
		if onStep != nil {
			onStep(last, now)
		}
		last = now
		op.energy = append(op.energy, epot+ekin)
	}
	res, err := core.Run(cfg, steps)
	op.totalMs = ms(time.Since(start))
	op.res = res
	if err != nil {
		return nil, err
	}
	if res.Iters != steps || len(op.energy) != steps {
		return nil, fmt.Errorf("ran %d of %d steps (%d callbacks)", res.Iters, steps, len(op.energy))
	}
	return op, nil
}

// energyDriftBound is the largest relative change of total energy over
// one run the checks accept. The undamped spring system conserves
// energy up to the integrator's error; a broken force or update path
// moves it by orders of magnitude more.
const energyDriftBound = 1e-4

// momentumBound is the largest per-particle mean change of total
// momentum accepted, in velocity units: the pair forces are equal and
// opposite, so momentum is conserved to rounding.
const momentumBound = 1e-9

// checkConservation verifies energy and momentum over one run that
// started from init and collected its final state, and returns the
// largest relative energy drift seen.
func checkConservation(init *core.State, op *opResult, d int) (float64, error) {
	e0 := op.energy[0]
	worst := 0.0
	for _, e := range op.energy {
		worst = math.Max(worst, math.Abs(e-e0)/math.Abs(e0))
	}
	if !(worst <= energyDriftBound) {
		return worst, fmt.Errorf("energy drift %.3g exceeds %.3g", worst, energyDriftBound)
	}
	var p0, p1 geom.Vec
	for i := range init.Vel {
		for k := 0; k < d; k++ {
			p0[k] += init.Vel[i][k]
			p1[k] += op.res.Vel[i][k]
		}
	}
	for k := 0; k < d; k++ {
		if dp := math.Abs(p1[k]-p0[k]) / float64(len(init.Vel)); !(dp <= momentumBound) {
			return worst, fmt.Errorf("momentum component %d changed by %.3g per particle (bound %.3g)", k, dp, momentumBound)
		}
	}
	return worst, nil
}

// sameState reports whether two collected final states are bitwise
// identical.
func sameState(a, b *core.Result) bool {
	if len(a.Pos) != len(b.Pos) {
		return false
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			return false
		}
	}
	return true
}

// checkAgainstSerial runs the first steps of cfg and of the same input
// in serial mode and compares the trajectories within verify's default
// tolerance.
func checkAgainstSerial(cfg core.Config, steps int) error {
	cfg.Platform = nil
	ser := cfg
	ser.Mode, ser.P, ser.T, ser.BlocksPerProc = core.Serial, 1, 1, 1
	a, err := verify.Capture(cfg, steps)
	if err != nil {
		return err
	}
	b, err := verify.Capture(ser, steps)
	if err != nil {
		return err
	}
	if dv, _ := verify.Compare(cfg.Box(), a, b, verify.DefaultTol); dv != nil {
		return errors.New(dv.String())
	}
	return nil
}

// deterministic reports whether the layout is expected to repeat bit
// for bit: every layout without a thread team, and threaded layouts
// whose update method does not add floats in scheduling order.
func deterministic(cfg *core.Config) bool {
	threaded := cfg.Mode == core.OpenMP || cfg.Mode == core.Hybrid
	return !threaded || cfg.T == 1 || (cfg.Method != shm.Atomic && cfg.Method != shm.SelectedAtomic)
}

// measureOps repeats core.Run calls of steps steps on cfg's input
// until budget is spent (at least one call) and returns them with the
// time they took.
func measureOps(cfg core.Config, steps int, budget time.Duration, r *report) ([]*opResult, time.Duration) {
	var ops []*opResult
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < budget {
		op, err := timedRun(cfg, steps, nil)
		r.op(err)
		if err != nil {
			break
		}
		ops = append(ops, op)
	}
	return ops, time.Since(start)
}

// warmup runs a short untimed core.Run so heap growth and other
// one-time process costs do not land in the first measured run.
func warmup(cfg core.Config, steps int) {
	core.Run(cfg, min(steps, 20))
}

// stepTimes concatenates the per-step host times of ops.
func stepTimes(ops []*opResult) []float64 {
	var steps []float64
	for _, op := range ops {
		steps = append(steps, op.stepMs...)
	}
	return steps
}

// runSim is the untraced end-to-end measurement of a simulation
// workload: core.Run calls of opSteps steps on the same input, repeated
// until the time budget is spent, then the correctness checks.
func runSim(s simSpec, seed int64, budget time.Duration, r *report) {
	cfg := s.config(seed)
	cfg.CollectState = true
	warmup(cfg, s.opSteps)
	ops, elapsed := measureOps(cfg, s.opSteps, budget, r)
	if len(ops) == 0 {
		return
	}
	steps := stepTimes(ops)
	var firsts, totals, model []float64
	for _, op := range ops {
		firsts = append(firsts, op.firstMs)
		totals = append(totals, op.totalMs)
		model = append(model, op.res.PerIter*1e3)
	}
	med := median(steps)
	setups := make([]float64, len(firsts))
	for i, f := range firsts {
		setups[i] = (f - med) / 1e3
	}
	n := len(ops)
	r.add("step_ms", "ms", med, len(steps), "host time per step between OnStep callbacks")
	r.add("step_ms_p99", "ms", quantile(steps, 0.99), len(steps), "")
	r.add("model_step_ms", "ms", median(model), n, "Result.PerIter on the CompaqES40 model")
	r.add("setup_s", "s", median(setups), n, "core.Run call to first OnStep, less one median step")
	r.add("ack_ms", "ms", median(firsts), n, "a run's first progress: core.Run call to first OnStep")
	r.add("ack_ms_p99", "ms", quantile(firsts, 0.99), n, "")
	r.add("job_ms", "ms", median(totals), n, fmt.Sprintf("one core.Run call of %d steps", s.opSteps))
	r.add("job_ms_p99", "ms", quantile(totals, 0.99), n, "")
	r.add("jobs_per_s", "1/s", float64(n)/elapsed.Seconds(), n, "core.Run calls completed per second, one at a time")

	for i, op := range ops {
		drift, err := checkConservation(cfg.Init, op, cfg.D)
		r.check(fmt.Sprintf("conservation run %d (energy drift %.2g)", i, drift), err)
	}
	if deterministic(&cfg) {
		for i := 1; i < len(ops); i++ {
			var err error
			if !sameState(ops[0].res, ops[i].res) {
				err = fmt.Errorf("final state differs from run 0")
			}
			r.check(fmt.Sprintf("bitwise repeat run %d", i), err)
		}
	}
	r.check(fmt.Sprintf("first %d steps match serial", s.checkSteps), checkAgainstSerial(cfg, s.checkSteps))
}
