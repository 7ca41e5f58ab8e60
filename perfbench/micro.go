package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/mp"
	"hybriddem/internal/server"
)

// mpResult is the message-passing microbenchmark at P=2.
type mpResult struct {
	alpha, beta float64 // one-way SendRecv time = alpha + beta·bytes, seconds and s/byte
	sizes       []float64
	oneWayUs    []float64
	allreduceUs float64
}

// mpSweep times SendRecv ping-pongs between two ranks over message
// sizes from 64 B to 256 KiB, which spans the halo messages of every
// workload, and fits α + β·n to the one-way times; it also times a
// two-element AllreduceInPlace.
func mpSweep(tr *tracer) (*mpResult, error) {
	const batches, perBatch = 5, 40
	res := &mpResult{}
	_, err := mp.RunOpts(2, mp.RunOptions{}, func(c *mp.Comm) {
		rank := c.Rank()
		peer := 1 - rank
		for floats := 8; floats <= 32768; floats *= 2 {
			buf := make([]float64, floats)
			var batch []float64
			for b := 0; b < batches+1; b++ {
				c.Barrier()
				t0 := time.Now()
				for i := 0; i < perBatch; i++ {
					if rank == 0 {
						f, _ := c.SendRecv(peer, floats, buf, nil, peer)
						c.FreeBuffers(f, nil)
					} else {
						f, _ := c.Recv(peer, floats)
						c.FreeBuffers(f, nil)
						c.Send(peer, floats, buf, nil)
					}
				}
				if b > 0 && rank == 0 { // the first batch warms the buffer pools
					batch = append(batch, time.Since(t0).Seconds()/perBatch/2)
					tr.add(fmt.Sprintf("mp.sendrecv_%dB", 8*floats), 0, -1, t0, time.Now())
				}
			}
			if rank == 0 {
				res.sizes = append(res.sizes, float64(8*floats))
				res.oneWayUs = append(res.oneWayUs, median(batch)*1e6)
			}
		}
		v := make([]float64, 2)
		var batch []float64
		for b := 0; b < batches+1; b++ {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < perBatch; i++ {
				c.AllreduceInPlace(v, mp.Sum)
			}
			if b > 0 {
				batch = append(batch, time.Since(t0).Seconds()/perBatch)
			}
		}
		if rank == 0 {
			res.allreduceUs = median(batch) * 1e6
		}
	})
	if err != nil {
		return nil, err
	}
	secs := make([]float64, len(res.oneWayUs))
	for i, us := range res.oneWayUs {
		secs[i] = us / 1e6
	}
	res.alpha, res.beta = fitLine(res.sizes, secs)
	return res, nil
}

// checkpointSave times checkpoint.SaveFile of a snapshot the size of
// one demd job and returns the median time and the file size.
func checkpointSave(spec server.JobSpec, dir string, reps int, tr *tracer) (float64, int64, error) {
	cfg := jobConfig(spec)
	cfg.CollectState = true
	res, err := core.Run(cfg, 1)
	if err != nil {
		return 0, 0, err
	}
	snap, err := checkpoint.FromResult(&cfg, res, 1)
	if err != nil {
		return 0, 0, err
	}
	path := filepath.Join(dir, "job.ck")
	var times []float64
	for i := 0; i < reps; i++ {
		var serr error
		times = append(times, timed(tr, "checkpoint.save", 0, -1, func() { serr = checkpoint.SaveFile(path, snap) }))
		if serr != nil {
			return 0, 0, serr
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return median(times), fi.Size(), nil
}

// serverResult is the daemon microbenchmark.
type serverResult struct {
	submitMs, queueWaitMs, runMs, statusRttMs float64
	rejected, retried, dropped                int64
	journalPerJob                             float64
}

// serverMicro starts an in-process daemon on a fresh data dir, submits
// jobs back to back through Server.Submit (journal append and fsync
// under the server lock), times each job's wait in the queue, status
// round trips over the socket, and core.Run of the same spec outside
// the daemon.
func serverMicro(spec server.JobSpec, jobs int, dir string, tr *tracer) (*serverResult, error) {
	out := &serverResult{}
	dataDir := filepath.Join(dir, "demd-micro")
	sock := filepath.Join(dir, "micro.sock")
	d, err := startDaemon(dataDir, sock)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	type sub struct {
		id    string
		acked time.Time
	}
	var subs []sub
	var submits []float64
	for i := 0; i < jobs; i++ {
		s := spec
		s.Seed = jobSeed(7, i)
		var resp *server.Response
		submits = append(submits, timed(tr, "server.submit", 0, -1, func() { resp = d.srv.Submit(&s) }))
		if !resp.OK {
			return nil, fmt.Errorf("submit: %s", resp.Error)
		}
		subs = append(subs, sub{resp.ID, time.Now()})
	}
	var waits []float64
	var dropped int64
	for _, s := range subs {
		for seenRunning := false; ; time.Sleep(100 * time.Microsecond) {
			st := d.srv.Status(s.id).Job
			if !seenRunning && st.State != "queued" {
				seenRunning = true
				waits = append(waits, ms(time.Since(s.acked)))
				tr.add("server.queue_wait", 0, -1, s.acked, time.Now())
			}
			if terminal(st.State) {
				if st.State != "done" {
					return nil, fmt.Errorf("job %s ended %s: %s", s.id, st.State, st.Error)
				}
				dropped += st.EventsDropped
				break
			}
		}
	}
	cl, err := dial(sock)
	if err != nil {
		return nil, err
	}
	defer cl.c.Close()
	var rtts []float64
	for i := 0; i < 50; i++ {
		var rerr error
		rtts = append(rtts, timed(tr, "server.status_rtt", 0, -1, func() {
			_, rerr = cl.do(&server.Request{Cmd: "status", ID: subs[0].id})
		}))
		if rerr != nil {
			return nil, rerr
		}
	}
	fi, err := os.Stat(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	st := d.srv.ServerStats().Stats

	var runs []float64
	for i := 0; i < 3; i++ {
		cfg := jobConfig(spec)
		var rerr error
		runs = append(runs, timed(tr, "server.run", 0, -1, func() { _, rerr = core.Run(cfg, spec.Iters) }))
		if rerr != nil {
			return nil, rerr
		}
	}
	out.submitMs = median(submits)
	out.queueWaitMs = median(waits)
	out.runMs = median(runs)
	out.statusRttMs = median(rtts)
	out.rejected, out.retried, out.dropped = st.Rejected, st.Retried, dropped
	out.journalPerJob = float64(fi.Size()) / float64(jobs)
	return out, nil
}

// repeatIdentical runs pairs of same-input runs and returns the share
// of pairs whose final states are bitwise equal.
func repeatIdentical(cfg core.Config, steps, pairs int) (float64, error) {
	cfg.CollectState = true
	cfg.Platform = nil
	same := 0
	for i := 0; i < pairs; i++ {
		a, err := core.Run(cfg, steps)
		if err != nil {
			return 0, err
		}
		b, err := core.Run(cfg, steps)
		if err != nil {
			return 0, err
		}
		if sameState(a, b) {
			same++
		}
	}
	return float64(same) / float64(pairs), nil
}
