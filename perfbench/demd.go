package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hybriddem/internal/checkpoint"
	"hybriddem/internal/core"
	"hybriddem/internal/machine"
	"hybriddem/internal/server"
)

// demdParams shapes the daemon workload.
type demdParams struct {
	job        server.JobSpec // template; Seed is set per job
	rate       float64        // open-loop offered jobs per second
	cancelNth  int            // every cancelNth job is canceled once running
	closedJobs int            // jobs outstanding in the closed-loop phase
	restarts   int            // daemon restarts timed for setup_s
	minChecks  int            // open-loop jobs at least checked against a direct run
}

// demdSpec is the demd-durable workload: small serial jobs, each with
// four durable checkpoints and fsynced journal records around a short
// simulation. The offered rate sits well below the daemon's measured
// closed-loop capacity on a 2-vCPU host (see README.md).
var demdSpec = demdParams{
	job:        server.JobSpec{D: 2, N: 2000, Iters: 200, CheckpointEvery: 50, Vel: 5},
	rate:       10,
	cancelNth:  5,
	closedJobs: 2,
	restarts:   10,
	minChecks:  10,
}

// demdTiny is the self-check's version.
var demdTiny = demdParams{
	job:        server.JobSpec{D: 2, N: 300, Iters: 40, CheckpointEvery: 10, Vel: 3},
	rate:       20,
	cancelNth:  5,
	closedJobs: 2,
	restarts:   2,
	minChecks:  5,
}

// jobSeed derives job i's input seed from the run seed.
func jobSeed(seed int64, i int) int64 { return seed*100003 + int64(i) + 1 }

// client is one socket connection speaking the daemon's JSON-lines
// protocol.
type client struct {
	c   net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

func dial(sock string) (*client, error) {
	c, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	return &client{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}, nil
}

func (cl *client) do(req *server.Request) (*server.Response, error) {
	if err := cl.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return nil, err
	}
	if err := cl.enc.Encode(req); err != nil {
		return nil, err
	}
	var resp server.Response
	if err := cl.dec.Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// daemon is one in-process demd instance served on a unix socket.
type daemon struct {
	srv    *server.Server
	sock   string
	served chan error
}

func startDaemon(dataDir, sock string) (*daemon, error) {
	srv, err := server.New(server.Options{Workers: 2, DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &daemon{srv: srv, sock: sock, served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for Serve to return.
func (d *daemon) stop() error {
	d.srv.Shutdown()
	err := <-d.served
	os.Remove(d.sock)
	return err
}

// jobRec follows one submitted job from its scheduled send time to the
// first status poll that sees it terminal.
type jobRec struct {
	i      int
	id     string
	due    time.Time
	ack    time.Time
	seen   time.Time // first poll that saw a terminal state
	state  string
	iters  int
	cancel bool // to be canceled once seen running
	sentCx bool
}

// pollEvery paces the status polling: fine enough to time jobs of tens
// of milliseconds, coarse enough to leave the CPUs to the daemon.
const pollEvery = 2 * time.Millisecond

func terminal(state string) bool { return state == "done" || state == "canceled" || state == "failed" }

// poll asks for the status of every pending job once, cancels the ones
// marked for it that it sees running, and returns those still pending.
func poll(cl *client, pending []*jobRec) ([]*jobRec, error) {
	keep := pending[:0]
	for _, j := range pending {
		resp, err := cl.do(&server.Request{Cmd: "status", ID: j.id})
		if err != nil {
			return nil, err
		}
		if !resp.OK || resp.Job == nil {
			return nil, fmt.Errorf("status %s: %s", j.id, resp.Error)
		}
		st := resp.Job
		if terminal(st.State) {
			j.seen, j.state, j.iters = time.Now(), st.State, st.ItersDone
			continue
		}
		if j.cancel && !j.sentCx && st.State == "running" {
			if resp, err := cl.do(&server.Request{Cmd: "cancel", ID: j.id}); err != nil || !resp.OK {
				return nil, fmt.Errorf("cancel %s: %v %+v", j.id, err, resp)
			}
			j.sentCx = true
		}
		keep = append(keep, j)
	}
	return keep, nil
}

// pollUntilIdle keeps polling until every pending job is terminal.
func pollUntilIdle(cl *client, pending []*jobRec, limit time.Duration) error {
	end := time.Now().Add(limit)
	for len(pending) > 0 {
		var err error
		if pending, err = poll(cl, pending); err != nil {
			return err
		}
		if time.Now().After(end) {
			return fmt.Errorf("%d jobs still running after %v", len(pending), limit)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// openLoop submits jobs on a fixed schedule from one connection while
// a second connection polls them to a terminal state. Each job is timed
// from when it was due, so a stalled daemon also delays the jobs behind
// it. It returns every job it submitted and how late the generator ran.
func openLoop(p demdParams, seed int64, sock string, dur time.Duration) ([]*jobRec, []float64, error) {
	subC, err := dial(sock)
	if err != nil {
		return nil, nil, err
	}
	defer subC.c.Close()
	pollC, err := dial(sock)
	if err != nil {
		return nil, nil, err
	}
	defer pollC.c.Close()

	total := int(dur.Seconds() * p.rate)
	if total < p.cancelNth {
		total = p.cancelNth
	}
	// Sized to the number of sends, so the generator never blocks.
	accepted := make(chan *jobRec, total)
	genErr := make(chan error, 1)
	var late []float64
	var all []*jobRec
	t0 := time.Now()
	go func() {
		defer close(accepted)
		for i := 0; i < total; i++ {
			due := t0.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
			waitUntil(due)
			late = append(late, ms(time.Since(due)))
			spec := p.job
			spec.Seed = jobSeed(seed, i)
			resp, err := subC.do(&server.Request{Cmd: "submit", Job: &spec})
			if err != nil {
				genErr <- err
				return
			}
			j := &jobRec{i: i, due: due, ack: time.Now(), cancel: (i+1)%p.cancelNth == 0}
			if resp.OK {
				j.id = resp.ID
				accepted <- j
			} else {
				j.state = "rejected: " + resp.Error
			}
			all = append(all, j)
		}
		genErr <- nil
	}()
	var pending []*jobRec
	for open := true; open || len(pending) > 0; {
		for drained := false; open && !drained; {
			select {
			case j, ok := <-accepted:
				if !ok {
					open = false
				} else {
					pending = append(pending, j)
				}
			default:
				drained = true
			}
		}
		if pending, err = poll(pollC, pending); err != nil {
			// Let the generator finish before returning its records.
			for range accepted {
			}
			<-genErr
			return nil, nil, err
		}
		time.Sleep(pollEvery)
	}
	if err := <-genErr; err != nil {
		return nil, nil, err
	}
	return all, late, nil
}

// waitUntil returns at t: it sleeps until shortly before, then yields
// in a loop, because a timer alone wakes up to a millisecond late on a
// busy host and that lateness would be charged to the daemon.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop keeps p.closedJobs jobs outstanding for dur, then waits
// for the last ones. It returns every job it submitted and how many
// reached a terminal state within dur.
func closedLoop(p demdParams, seed int64, sock string, dur time.Duration, first int) ([]*jobRec, int, time.Duration, error) {
	subC, err := dial(sock)
	if err != nil {
		return nil, 0, 0, err
	}
	defer subC.c.Close()
	pollC, err := dial(sock)
	if err != nil {
		return nil, 0, 0, err
	}
	defer pollC.c.Close()
	var all []*jobRec
	next := first
	submit := func() (*jobRec, error) {
		spec := p.job
		spec.Seed = jobSeed(seed, next)
		next++
		resp, err := subC.do(&server.Request{Cmd: "submit", Job: &spec})
		if err != nil {
			return nil, err
		}
		if !resp.OK {
			return nil, fmt.Errorf("submit rejected: %s", resp.Error)
		}
		j := &jobRec{id: resp.ID}
		all = append(all, j)
		return j, nil
	}
	var pending []*jobRec
	completed := 0
	t0 := time.Now()
	end := t0.Add(dur)
	for time.Now().Before(end) {
		for len(pending) < p.closedJobs {
			j, err := submit()
			if err != nil {
				return nil, 0, 0, err
			}
			pending = append(pending, j)
		}
		before := len(pending)
		if pending, err = poll(pollC, pending); err != nil {
			return nil, 0, 0, err
		}
		completed += before - len(pending)
		time.Sleep(pollEvery)
	}
	elapsed := time.Since(t0)
	return all, completed, elapsed, pollUntilIdle(pollC, pending, time.Minute)
}

// jobConfig mirrors how the daemon turns a job spec into a run
// configuration (core.Default plus the spec's overrides).
func jobConfig(spec server.JobSpec) core.Config {
	cfg := core.Default(spec.D, spec.N)
	cfg.Seed = spec.Seed
	cfg.InitVel = spec.Vel
	return cfg
}

// directRun runs a job spec outside the daemon, in the same
// checkpoint-sized chunks the daemon uses, up to iters iterations, and
// returns the final result with its per-step host times and the
// modelled step time of every chunk.
func directRun(spec server.JobSpec, iters int) (*core.Result, []float64, []float64, error) {
	cfg := jobConfig(spec)
	cfg.CollectState = true
	cfg.Platform = machine.CompaqES40()
	var steps, model []float64
	var res *core.Result
	for done := 0; done < iters; {
		n := min(spec.CheckpointEvery-done%spec.CheckpointEvery, iters-done)
		op, err := timedRun(cfg, n, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		steps = append(steps, op.stepMs...)
		model = append(model, op.res.PerIter*1e3)
		res = op.res
		done += n
		cfg.Init = &core.State{Pos: res.Pos, Vel: res.Vel}
	}
	return res, steps, model, nil
}

// checkJob loads a job's durable checkpoint and compares it bit for
// bit with a direct chunked run of the same spec. The daemon runs
// serial jobs on the same chunk grid as directRun, so DESIGN.md §16's
// bit-exactness applies.
func checkJob(p demdParams, seed int64, dataDir string, j *jobRec) ([]float64, []float64, error) {
	snap, err := checkpoint.LoadFile(filepath.Join(dataDir, "jobs", j.id+".ck"))
	if err != nil {
		return nil, nil, err
	}
	if snap.Iters != j.iters {
		return nil, nil, fmt.Errorf("checkpoint holds %d iterations, status says %d", snap.Iters, j.iters)
	}
	spec := p.job
	spec.Seed = jobSeed(seed, j.i)
	res, steps, model, err := directRun(spec, snap.Iters)
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < spec.D; k++ {
		for id := 0; id < spec.N; id++ {
			if snap.Pos[k][id] != res.Pos[id][k] || snap.Vel[k][id] != res.Vel[id][k] {
				return nil, nil, fmt.Errorf("particle %d component %d differs from a direct chunked run", id, k)
			}
		}
	}
	return steps, model, nil
}

// timeRestart measures one daemon start on an existing data dir:
// journal replay in server.New until a request over the socket is
// answered.
func timeRestart(dataDir, sock string) (time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(dataDir, sock)
	if err != nil {
		return 0, err
	}
	cl, err := dial(sock)
	if err == nil {
		var resp *server.Response
		resp, err = cl.do(&server.Request{Cmd: "stats"})
		if err == nil && !resp.OK {
			err = errors.New(resp.Error)
		}
		cl.c.Close()
	}
	el := time.Since(t0)
	if serr := d.stop(); err == nil {
		err = serr
	}
	return el, err
}

// runDemd is the demd-durable workload: an open-loop phase, a
// closed-loop phase, the checks, and timed daemon restarts.
func runDemd(p demdParams, seed int64, budget time.Duration, scratch string, r *report) error {
	dataDir := filepath.Join(scratch, "demd")
	sock := filepath.Join(scratch, "demd.sock")
	d, err := startDaemon(dataDir, sock)
	if err != nil {
		return err
	}
	// The open loop gets most of the budget: its tail percentiles need
	// the samples. The checks' direct runs come after the budget.
	openDur, closedDur := budget*4/5, budget/5
	jobs, late, err := openLoop(p, seed, sock, openDur)
	var closed []*jobRec
	var completed int
	var closedTook time.Duration
	if err == nil {
		closed, completed, closedTook, err = closedLoop(p, seed, sock, closedDur, len(jobs))
	}
	st := d.srv.ServerStats().Stats
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	var acks, lat []float64
	nDone, nCanc := 0, 0
	for _, j := range jobs {
		var jerr error
		switch j.state {
		case "done":
			nDone++
		case "canceled":
			nCanc++
		default:
			jerr = fmt.Errorf("job %d ended %q", j.i, j.state)
		}
		r.op(jerr)
		if jerr == nil {
			acks = append(acks, ms(j.ack.Sub(j.due)))
			lat = append(lat, ms(j.seen.Sub(j.due)))
		}
	}
	if nCanc == 0 {
		r.check("some open-loop job was canceled", errors.New("none was"))
	}
	for _, j := range closed {
		var jerr error
		if j.state != "done" {
			jerr = fmt.Errorf("closed-loop job %s ended %q", j.id, j.state)
		}
		r.op(jerr)
	}
	// Check jobs in submission order, so every fifth is a canceled one,
	// until the rest of the budget is spent; the direct runs also give
	// the job spec's step times.
	var steps, model []float64
	checkEnd := time.Now().Add(budget / 10)
	for i, j := range jobs {
		if i >= p.minChecks && time.Now().After(checkEnd) {
			break
		}
		if j.state != "done" && j.state != "canceled" {
			continue
		}
		s, m, err := checkJob(p, seed, dataDir, j)
		r.check(fmt.Sprintf("job %s (%s, %d iters) checkpoint matches a direct chunked run", j.id, j.state, j.iters), err)
		steps = append(steps, s...)
		model = append(model, m...)
	}

	var setups []float64
	for i := 0; i < p.restarts; i++ {
		el, err := timeRestart(dataDir, sock)
		r.op(err)
		if err == nil {
			setups = append(setups, el.Seconds())
		}
	}

	r.add("step_ms", "ms", median(steps), len(steps), "job spec's steps run outside the daemon (the checks' direct runs)")
	r.add("step_ms_p99", "ms", quantile(steps, 0.99), len(steps), "")
	r.add("model_step_ms", "ms", median(model), len(model), "Result.PerIter on the CompaqES40 model, per chunk")
	r.add("setup_s", "s", median(setups), len(setups), fmt.Sprintf("journal replay of %d jobs in server.New until a request is answered", st.Submitted))
	r.add("ack_ms", "ms", median(acks), len(acks), fmt.Sprintf("open loop at %g jobs/s, from scheduled send time", p.rate))
	r.add("ack_ms_p99", "ms", quantile(acks, 0.99), len(acks), "")
	r.add("job_ms", "ms", median(lat), len(lat), fmt.Sprintf("scheduled send to terminal state; %d done, %d canceled", nDone, nCanc))
	r.add("job_ms_p99", "ms", quantile(lat, 0.99), len(lat), "")
	r.add("jobs_per_s", "1/s", float64(completed)/closedTook.Seconds(), completed,
		fmt.Sprintf("closed loop, %d jobs outstanding", p.closedJobs))
	r.checks = append(r.checks, fmt.Sprintf("note generator lateness p50=%.3f ms max=%.3f ms over %d sends; daemon rejected=%d retried=%d failed=%d",
		median(late), quantile(late, 1), len(late), st.Rejected, st.Retried, st.Failed))
	return nil
}
