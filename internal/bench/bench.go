// Package bench regenerates every table and figure of the paper's
// evaluation: the base-time tables (1, 2), the MPI scaling and
// granularity figures (1-3), the OpenMP strategy figures (4, 5), the
// single-node crossover figure (6), the hybrid-vs-MPI cluster figures
// (7, 8), and the supporting analyses of Section 9 (synchronisation
// overhead, lock fraction, and the free-lock ablation).
//
// Runs use the virtual platforms of internal/machine; reported times
// are modelled seconds. Default options run a scaled-down particle
// count with the locality metric rescaled to the paper's 10^6
// particles (Config.ModelN); Full reproduces the exact benchmark
// sizes.
package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"hybriddem/internal/core"
	"hybriddem/internal/machine"
	"hybriddem/internal/shm"
)

// Options scales the experiment suite.
type Options struct {
	N      int   // particles; 0 -> 40000 (Full forces 1e6)
	ModelN int   // cache-model particle count; 0 -> 1e6
	Iters  int   // measured iterations; 0 -> paper/5 (8 for D=2, 4 for D=3)
	Warmup int   // warm-up iterations; 0 -> 1
	Seed   int64 // 0 -> 1
	Full   bool  // paper scale: 10^6 particles, 40/20 iterations

	// NoOverlap runs every experiment with the synchronous schedule of
	// the halo exchange (the paper's original formulation). X7 ignores
	// it: that experiment sweeps both schedules by construction.
	NoOverlap bool

	// Rebalance selects dynamic block→rank load balancing in every
	// distributed run. X8 and X11 ignore it: those experiments sweep the
	// strategies by construction. RebalanceOff by default, keeping the
	// suite's output identical to the static deal.
	Rebalance core.Strategy
}

func (o Options) withDefaults() Options {
	if o.Full {
		o.N = 1_000_000
	}
	if o.N == 0 {
		o.N = 40_000
	}
	if o.ModelN == 0 {
		o.ModelN = 1_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	return o
}

// lockSensitive raises the default particle count for experiments
// whose result hinges on the measured conflict fraction (F6-F8 and
// the Section 9 analyses): at 40k particles the blocks are so small
// relative to the cutoff that nearly every particle sits on a
// thread-chunk boundary, saturating the lock counts that the paper's
// 10^6-particle blocks keep low at coarse granularity.
func (o Options) lockSensitive() Options {
	if !o.Full && o.N == 0 {
		o.N = 200_000
	}
	return o
}

// iters returns the measured iteration count for dimension d: the
// paper uses 40 (D=2) and 20 (D=3).
func (o Options) iters(d int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	if o.Full {
		if d == 2 {
			return 40
		}
		return 20
	}
	if d == 2 {
		return 8
	}
	return 4
}

// config builds the paper's benchmark configuration on a platform.
func (o Options) config(d int, rcFactor float64, pf *machine.Platform, reorder bool) core.Config {
	cfg := core.Default(d, o.N)
	cfg.RCFactor = rcFactor
	cfg.Seed = o.Seed
	cfg.Reorder = reorder
	cfg.Platform = pf
	cfg.ModelN = o.ModelN
	cfg.Warmup = o.Warmup
	cfg.Overlap = !o.NoOverlap
	cfg.Rebalance = o.Rebalance
	return cfg
}

// Report is one regenerated table or figure as labelled text.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report with aligned columns.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Cell looks a value up by row key (first column) and column header;
// tests use it to assert on crossings and orderings.
func (r *Report) Cell(rowKey, col string) (string, bool) {
	ci := -1
	for i, h := range r.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range r.Rows {
		if row[0] == rowKey && ci < len(row) {
			return row[ci], true
		}
	}
	return "", false
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// mustRun executes a configuration, panicking on configuration errors
// (experiment definitions are static, so an error is a programming
// mistake, not an input problem).
func mustRun(cfg core.Config, iters int) *core.Result {
	res, err := core.Run(cfg, iters)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return res
}

// scaleTo1M names the paper-scale per-iteration time. The drivers
// already bake the ModelN work scaling into every modelled charge
// (compute scaled by ModelN/N, exchange volumes by the surface power,
// synchronisation overheads unscaled), so the result is the modelled
// time as-is; the function remains as the single place documenting
// that contract.
func (o Options) scaleTo1M(perIter float64) float64 { return perIter }

// Experiment couples an ID to its generator for the CLI.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Options) *Report
}

// All lists every regenerable table and figure in the paper's order.
var All = []Experiment{
	{"X0", "calibration: model versus the published Tables 1 and 2", Calibration},
	{"T1", "Table 1: time per iteration, no particle reordering", Table1},
	{"T2", "Table 2: time per iteration with particle reordering", Table2},
	{"F1", "Figure 1: MPI block-distribution scaling (no reordering)", Figure1},
	{"F2", "Figure 2: MPI scaling with particle reordering", Figure2},
	{"F3", "Figure 3: MPI performance vs blocks per process", Figure3},
	{"F4", "Figure 4: OpenMP scaling on the Sun (D=3)", Figure4},
	{"F5", "Figure 5: OpenMP scaling on the Compaq (D=3)", Figure5},
	{"F6", "Figure 6: MPI vs OpenMP crossover on one Compaq node (D=3)", Figure6},
	{"F7", "Figure 7: hybrid vs MPI efficiency on the cluster (D=2)", Figure7},
	{"F8", "Figure 8: hybrid vs MPI efficiency on the cluster (D=3)", Figure8},
	{"X1", "Section 9.3: OpenMP synchronisation overhead per block", ExtraSyncOverhead},
	{"X2", "Section 9.2: lock fraction vs granularity", ExtraLockFraction},
	{"X3", "Section 9.2: free-lock ablation (incorrect code)", ExtraNoLockAblation},
	{"X4", "Section 11: fused single-region hybrid force loop", ExtraFusedRegions},
	{"X5", "halo machinery ablations: indexed datatypes and the same-rank fast path", ExtraHaloMachinery},
	{"X6", "extension: the clustered workload run directly (granularity vs hybrid balance)", ExtraClusteredWorkload},
	{"X7", "extension: split-phase halo exchange — communication hidden by the core-link pass", ExtraOverlap},
	{"X8", "extension: dynamic block→rank load balancing on the clustered bed", ExtraRebalance},
	{"X9", "extension: fault tolerance — replay depth vs snapshot cadence, integrity overhead", ExtraChaos},
	{"X10", "extension: MPI-3-style shared-memory windows (mpism) vs messages vs threads", ExtraMpism},
	{"X11", "extension: adaptive ORB decomposition vs LPT on the moving-cluster bed", ExtraORB},
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// methodLabel shortens strategy names for column headers.
func methodLabel(m shm.Method) string {
	switch m {
	case shm.Atomic:
		return "atomic"
	case shm.SelectedAtomic:
		return "sel-atomic"
	case shm.CriticalReduction:
		return "critical"
	case shm.Stripe:
		return "stripe"
	case shm.Transpose:
		return "transpose"
	default:
		return m.String()
	}
}
