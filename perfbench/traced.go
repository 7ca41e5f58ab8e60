package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"time"

	"hybriddem/internal/core"
	"hybriddem/internal/machine"
	"hybriddem/internal/trace"
)

// layerReps is how many times each layer call is repeated in a suite,
// and replicaSteps how many steps the replica of the workload's step
// runs for the accounting.
const layerReps, replicaSteps = 20, 60

// layers names the layers whose self times account for a traced step,
// in the order the accounting line prints them.
var layers = []string{"force", "shm", "cell", "decomp", "mp"}

// sim returns the simulation the traced breakdown of the daemon
// workload uses: the job spec's own run, outside the daemon.
func (p demdParams) sim() simSpec {
	return simSpec{mode: core.Serial, P: 1, T: 1, BPP: 1, D: p.job.D, N: p.job.N, vel: p.job.Vel,
		opSteps: p.job.Iters, checkSteps: 3}
}

// runTraced is the --trace 1 run: the workload's simulation timed
// untraced and traced through core.Run, the layer suites on the
// workload's own input, and the message, checkpoint and daemon
// microbenchmarks. Every layer is measured on every workload; the
// README says which layers lie on each workload's path. The spans are
// written as a Chrome trace-event file.
func runTraced(s simSpec, dp demdParams, name string, seed int64, budget time.Duration, scratch string, out io.Writer, r *report) error {
	tr := newTracer()
	cfg := s.config(seed)

	// End-to-end step time without and with spans, for the overhead;
	// the two kinds of run alternate so both see the same conditions.
	var untraced, traced []*opResult
	hook := func(t0, t1 time.Time) { tr.add("core.step", 0, -1, t0, t1) }
	warmup(cfg, s.opSteps)
	for start := time.Now(); len(traced) == 0 || time.Since(start) < budget/2; {
		u, err := timedRun(cfg, s.opSteps, nil)
		r.op(err)
		t, terr := timedRun(cfg, s.opSteps, hook)
		r.op(terr)
		if err != nil || terr != nil {
			return fmt.Errorf("simulation runs failed: %v %v", err, terr)
		}
		untraced, traced = append(untraced, u), append(traced, t)
	}
	var tc trace.Counters
	iters, rebuilds := 0, 0
	for _, op := range traced {
		tc.Add(&op.res.TC)
		iters += op.res.Iters
		rebuilds += op.res.Rebuilds
	}

	lr := &layerResult{}
	var err error
	if cfg.Mode == core.Serial || cfg.Mode == core.OpenMP {
		sharedSuite(cfg, layerReps, tr, lr)
		err = decompSuite(cfg, layerReps, false, tr, lr)
	} else {
		err = decompSuite(cfg, layerReps, true, tr, lr)
	}
	r.op(err)
	if err != nil {
		return err
	}
	mpr, err := mpSweep(tr)
	r.op(err)
	if err != nil {
		return err
	}
	ckMs, ckBytes, err := checkpointSave(dp.job, scratch, 10, tr)
	r.op(err)
	if err != nil {
		return err
	}
	sv, err := serverMicro(dp.job, 6, scratch, tr)
	r.op(err)
	if err != nil {
		return err
	}
	same, err := repeatIdentical(cfg, s.opSteps, 3)
	r.op(err)
	if err != nil {
		return err
	}
	if deterministic(&cfg) && same != 1 {
		r.check("same-seed runs repeat bitwise", fmt.Errorf("only %.2f of pairs are identical", same))
	}

	// Accounting: the traced step is the layers' self times, measured on
	// rank 0's replica of the step, plus core's own time.
	stepMs := median(tr.durations("core.step", 0))
	selfs := tr.layerSelf("replica.step", 0)
	sum := 0.0
	var parts []string
	for _, l := range layers {
		if xs := selfs[l]; len(xs) > 0 {
			sum += median(xs)
			parts = append(parts, fmt.Sprintf("%s %.4f", l, median(xs)))
		}
	}
	r.add("core.step_ms", "ms", stepMs, len(tr.durations("core.step", 0)), "traced core.Run step (between OnStep callbacks)")
	r.add("core.self_ms", "ms", stepMs-sum, len(tr.durations("core.step", 0)), "core.step_ms minus the layers' self times")
	r.add("core.trace_overhead", "ratio", stepMs/median(stepTimes(untraced)), len(stepTimes(untraced)), "traced / untraced step_ms")

	fa, sa := median(lr.forceAcc), median(lr.shmAcc)
	d := float64(cfg.D)
	flops := float64(lr.forceTC.LinkVisits)*(3*d-1) + float64(lr.forceTC.Contacts)*(3*d+6)
	bytes := float64(lr.forceTC.LinkVisits)*(8+16*d) + float64(lr.forceTC.Contacts)*32*d
	r.add("force.accumulate_ms", "ms", fa, len(lr.forceAcc), "single-threaded Spring.Accumulate over the workload's lists")
	r.add("force.integrate_ms", "ms", median(lr.forceInt), len(lr.forceInt), "single-threaded Integrate + KineticEnergy")
	r.add("force.contact_ratio", "ratio", ratio(lr.forceTC.Contacts, lr.forceTC.LinkVisits), 1, "contacts / link visits")
	r.add("force.ops_per_byte", "flop/B", flops/bytes, 1,
		"computed: 3D-1 flops and 8+16D bytes per link visit, plus 3D+6 flops and 32D bytes per contact")
	r.add("shm.accumulate_ms", "ms", sa, len(lr.shmAcc), "Updater.Accumulate at T=2 over the same lists")
	r.add("shm.speedup", "ratio", fa/sa, len(lr.shmAcc), fmt.Sprintf("base: force.accumulate_ms %.4g ms / shm.accumulate_ms %.4g ms", fa, sa))
	r.add("shm.prepare_ms", "ms", median(lr.shmPrep), len(lr.shmPrep), "Updater.Prepare (conflict table) at T=2")
	r.add("shm.lock_fraction", "ratio", ratio(lr.taken, lr.taken+lr.avoided), 1, "protected / all force updates at T=2")
	r.add("shm.regions_per_step", "count", float64(tc.ParallelRegions)/float64(iters), iters, "parallel regions per step in core.Run")
	r.add("shm.repeat_identical", "ratio", same, 3, fmt.Sprintf("share of same-seed run pairs (%d steps) with bitwise-equal final state", s.opSteps))
	r.add("cell.build_ms", "ms", median(lr.cellBuild), len(lr.cellBuild), "bin, reorder and link build")
	r.add("cell.link_yield", "ratio", ratio(lr.links, lr.pairChecks), 1, "links / pair checks")
	r.add("cell.steps_per_rebuild", "steps", float64(iters)/math.Max(1, float64(rebuilds)), rebuilds, "in core.Run")
	r.add("decomp.halo_ms", "ms", median(lr.halo), len(lr.halo), fmt.Sprintf("RefreshHalos on the slowest rank, P=%d B/P=%d", cfg.P, cfg.BlocksPerProc))
	r.add("decomp.rebuild_ms", "ms", median(lr.rebuild), len(lr.rebuild), "Domain.Rebuild on the slowest rank")
	r.add("decomp.halo_bytes_per_step", "B", lr.haloBytes, 1, "message bytes of one halo refresh, all ranks")
	r.add("decomp.migrated_per_rebuild", "count", float64(tc.MigratedParts)/math.Max(1, float64(rebuilds)), rebuilds, "in core.Run")
	r.add("mp.alpha_us", "us", mpr.alpha*1e6, len(mpr.sizes), "α of α+βn over one-way SendRecv at P=2")
	r.add("mp.beta_ns_per_kb", "ns/KiB", mpr.beta*1024*1e9, len(mpr.sizes), "β of α+βn")
	r.add("mp.allreduce_us", "us", mpr.allreduceUs, 1, "two-element AllreduceInPlace at P=2")
	r.add("mp.msgs_per_step", "count", float64(tc.MsgsSent)/float64(iters), iters, "in core.Run")
	r.add("mp.bytes_per_step", "B", float64(tc.BytesSent)/float64(iters), iters, "in core.Run")
	r.add("checkpoint.save_ms", "ms", ckMs, 10, fmt.Sprintf("SaveFile of one demd job's snapshot (D=%d N=%d)", dp.job.D, dp.job.N))
	r.add("checkpoint.bytes", "B", float64(ckBytes), 1, "")
	r.add("server.submit_ms", "ms", sv.submitMs, 6, "in-process Server.Submit (journal append + fsync)")
	r.add("server.queue_wait_ms", "ms", sv.queueWaitMs, 6, "6 jobs submitted back to back, 2 workers")
	r.add("server.run_ms", "ms", sv.runMs, 3, "core.Run of the job spec outside the daemon")
	r.add("server.status_rtt_ms", "ms", sv.statusRttMs, 50, "status request over the unix socket")
	r.add("server.rejected", "count", float64(sv.rejected), 6, "")
	r.add("server.retried", "count", float64(sv.retried), 6, "")
	r.add("server.events_dropped", "count", float64(sv.dropped), 6, "")
	r.add("server.journal_bytes_per_job", "B", sv.journalPerJob, 6, "")

	pf := machine.CompaqES40()
	r.checks = append(r.checks,
		fmt.Sprintf("note mp host fit: alpha=%.3f us beta=%.1f ns/KiB; %s model: intra-node lat=%.3g us beta=%.1f ns/KiB, inter-node lat=%.3g us beta=%.1f ns/KiB",
			mpr.alpha*1e6, mpr.beta*1024*1e9, pf.Name, pf.IntraLat*1e6, 1024/pf.IntraBw*1e9, pf.InterLat*1e6, 1024/pf.InterBw*1e9))
	for i, sz := range mpr.sizes {
		r.checks = append(r.checks, fmt.Sprintf("note mp one-way SendRecv %7.0f B: %.3f us", sz, mpr.oneWayUs[i]))
	}
	r.checks = append(r.checks, fmt.Sprintf("note accounting (ms per step, median self time over %d replica steps): core.step_ms %.4f = %s + core.self_ms %.4f",
		replicaSteps, stepMs, strings.Join(parts, " + "), stepMs-sum))

	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace %s (%d spans, Chrome trace-event JSON)\n", path, len(tr.spans))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
