package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// selfCheck runs every workload, untraced and traced, at a tiny size
// for one second and fails if a check fails or any named metric (all
// nine end-to-end metrics, every per-layer metric of BENCHMARK.json) is
// missing, has no unit, or is not finite, or if BENCHMARK.json gates a
// metric the benchmark does not report.
func selfCheck(w io.Writer, gated, perLayer []string) int {
	for _, g := range gated {
		if !slices.Contains(endToEnd, g) {
			fmt.Fprintf(w, "selfcheck FAIL BENCHMARK.json bounds %s, which is not an end-to-end metric\n", g)
			return 1
		}
	}
	scratch, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	bad := 0
	for _, wl := range workloads {
		for traced := 0; traced <= 1; traced++ {
			r := &report{}
			want := endToEnd
			var tiny *simSpec
			if wl.sim != nil {
				t := wl.sim.tiny()
				tiny = &t
			}
			if traced == 1 {
				want = perLayer
				s := demdTiny.sim()
				if tiny != nil {
					s = *tiny
				}
				err = runTraced(s, demdTiny, wl.name+"-tiny", 1, time.Second, scratch, io.Discard, r)
			} else {
				err = runWorkload(tiny, demdTiny, 1, time.Second, scratch, r)
			}
			if err == nil {
				err = r.validate(want)
			}
			if err == nil && r.failed > 0 {
				err = fmt.Errorf("%d of %d operations failed", r.failed, r.attempted)
			}
			status := "ok"
			if err != nil {
				status = "FAIL " + err.Error()
				bad++
			}
			fmt.Fprintf(w, "selfcheck %-18s trace=%d %d metrics: %s\n", wl.name, traced, len(r.metrics), status)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
