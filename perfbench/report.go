package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit and the number of
// samples it summarises.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// report collects a run's metrics, operation counts and failed checks.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	checks    []string // one line per correctness check, pass or fail
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

// check records one correctness check as an attempted operation and,
// when err is non-nil, as a failed one.
func (r *report) check(name string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.checks = append(r.checks, fmt.Sprintf("check FAIL %s: %v", name, err))
		return
	}
	r.checks = append(r.checks, "check ok   "+name)
}

// op records one workload operation (a run, a job) as attempted and,
// when err is non-nil, as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.checks = append(r.checks, fmt.Sprintf("op FAIL: %v", err))
	}
}

// write prints the human-readable lines and then the one-line JSON
// result the benchmark contract asks for as the last line of stdout.
// The JSON carries the metrics named in gated, or all of them when
// gated is nil; the others are printed as reported-only lines.
func (r *report) write(w io.Writer, gated []string) error {
	for _, c := range r.checks {
		fmt.Fprintln(w, c)
	}
	inJSON := func(name string) bool { return gated == nil || slices.Contains(gated, name) }
	for _, m := range r.metrics {
		line := fmt.Sprintf("metric %-30s %14.6g %-8s n=%d", m.Name, m.Value, m.Unit, m.N)
		if !inJSON(m.Name) {
			line += "  [reported, not gated]"
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", r.attempted, r.failed)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	for _, m := range r.metrics {
		if inJSON(m.Name) {
			out.Metrics[m.Name] = val{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// validate fails when a wanted metric is missing, has no unit, or is
// not a finite number.
func (r *report) validate(want []string) error {
	have := map[string]metric{}
	for _, m := range r.metrics {
		have[m.Name] = m
	}
	var bad []string
	for _, name := range want {
		m, ok := have[name]
		switch {
		case !ok:
			bad = append(bad, name+" missing")
		case m.Unit == "":
			bad = append(bad, name+" has no unit")
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad = append(bad, fmt.Sprintf("%s = %v", name, m.Value))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fitLine returns the least-squares intercept and slope of y = a + b·x.
func fitLine(x, y []float64) (a, b float64) {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a = (sy - b*sx) / n
	return a, b
}
