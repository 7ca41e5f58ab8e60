// Command perfbench is the repository's benchmark: it drives the DEM
// program through its public entry points (core.Run with Config.Init
// and Config.OnStep; server.New and Serve with the socket protocol) on
// a fixed set of workloads, checks the outputs, and prints every
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash perfbench/run.sh --workload omp-d3-dense --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selfcheck
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// per-layer breakdown instead and writes a Chrome trace-event file.
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hybriddem/internal/core"
)

// workload is one benchmark input and the layers it stresses.
type workload struct {
	name string
	sim  *simSpec // nil for the daemon workload
}

var workloads = []workload{
	{"omp-d3-dense", &simSpec{mode: core.OpenMP, P: 1, T: 2, BPP: 1, D: 3, N: 20000, vel: 3, opSteps: 120, checkSteps: 3}},
	{"hybrid-d3-blocks", &simSpec{mode: core.Hybrid, P: 1, T: 2, BPP: 8, D: 3, N: 20000, vel: 3, opSteps: 120, checkSteps: 3}},
	{"mpi-d3-fine", &simSpec{mode: core.MPI, P: 2, T: 1, BPP: 32, D: 3, N: 8000, vel: 5, opSteps: 200, checkSteps: 3}},
	{"demd-durable", nil},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// endToEnd lists the metrics a --trace 0 run reports.
var endToEnd = []string{"step_ms", "step_ms_p99", "model_step_ms", "setup_s",
	"ack_ms", "ack_ms_p99", "job_ms", "job_ms_p99", "jobs_per_s"}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// end-to-end metrics it bounds, which the result line of a --trace 0
// run carries (the other end-to-end metrics are printed but not gated,
// see README.md), and the per-layer metrics of a --trace 1 run.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadSpec() (gated, perLayer []string, err error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range spec.EndToEnd {
		gated = append(gated, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return gated, perLayer, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fl.Int("seconds", 10, "measured seconds")
	traced := fl.Int("trace", 0, "1 runs the traced per-layer breakdown")
	self := fl.Bool("selfcheck", false, "run every workload at a tiny size and validate the metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if err := checkSources(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	gated, perLayer, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *self {
		return selfCheck(stdout, gated, perLayer)
	}
	w, err := findWorkload(*name)
	if err != nil || *secs < 1 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	scratch, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	printEnv(stdout, w.name, *seed, *traced == 1)
	r := &report{}
	budget := time.Duration(*secs) * time.Second
	if *traced == 1 {
		err = runTraced(w.simOrJob(demdSpec), demdSpec, w.name, *seed, budget, scratch, stdout, r)
	} else {
		err = runWorkload(w.sim, demdSpec, *seed, budget, scratch, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 {
		gated = perLayer
	}
	if err := r.write(stdout, gated); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// simOrJob returns the simulation a workload's traced run breaks down:
// its own, or for the daemon workload the job spec's run.
func (w *workload) simOrJob(dp demdParams) simSpec {
	if w.sim != nil {
		return *w.sim
	}
	return dp.sim()
}

// tiny returns the self-check's small version of a simulation.
func (s simSpec) tiny() simSpec {
	s.N, s.opSteps, s.checkSteps = 3000, 20, 2
	return s
}

// runWorkload is the untraced end-to-end measurement.
func runWorkload(s *simSpec, dp demdParams, seed int64, budget time.Duration, scratch string, r *report) error {
	if s != nil {
		runSim(*s, seed, budget, r)
		return nil
	}
	return runDemd(dp, seed, budget, scratch, r)
}

// checkSources fails unless the working directory is the root of a
// checkout holding the program's sources, so a benchmark directory
// copied on its own exits instead of measuring nothing.
func checkSources() error {
	for _, p := range []string{"go.mod", "internal/core/config.go", "internal/server/server.go"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root (missing %s)", p)
		}
	}
	return nil
}

// scratchDir makes a per-run directory under .bench_build for the
// daemon's data dir, sockets and checkpoints.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// printEnv records where and on what the numbers were measured.
func printEnv(w io.Writer, name string, seed int64, traced bool) {
	host, _ := os.Hostname()
	fmt.Fprintf(w, "env workload=%s seed=%d traced=%v\n", name, seed, traced)
	fmt.Fprintf(w, "env host=%s cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n",
		host, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "env commit=%s sources=%s\n", commit(), sourceDigest())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit when the checkout is a git
// repository, read from .git without running git; sourceDigest
// identifies the sources either way.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod of the checkout
// outside the build directory, in path order.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
