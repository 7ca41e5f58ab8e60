package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans on one track
// (tid: a rank, or 0 for single-process work) nest through parent.
type span struct {
	name       string
	tid        int
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Time
}

// tracer keeps spans in memory; they are written out once, when the
// run ends. Rank goroutines record concurrently, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, tid, parent int) int {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, tid: tid, parent: parent, start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, tid, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, tid: tid, parent: parent, start: start, end: end})
	return len(t.spans) - 1
}

// do runs fn inside a span.
func (t *tracer) do(name string, tid, parent int, fn func()) {
	id := t.begin(name, tid, parent)
	fn()
	t.end(id)
}

// selfTimes returns every span's duration minus the part of it that
// its child spans cover, in milliseconds, indexed like t.spans.
func (t *tracer) selfTimes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += ms(s.end.Sub(s.start))
		if s.parent >= 0 {
			self[s.parent] -= ms(s.end.Sub(s.start))
		}
	}
	return self
}

// durations returns the durations in ms of every span with this name
// on this track.
func (t *tracer) durations(name string, tid int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.tid == tid {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// layerSelf sums, for every span named root on track tid, the self
// times of its children by layer (the span name up to its first dot),
// and returns the per-root sums keyed by layer.
func (t *tracer) layerSelf(root string, tid int) map[string][]float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	perRoot := map[int]map[string]float64{}
	var roots []int
	for i, s := range t.spans {
		if s.name == root && s.tid == tid {
			perRoot[i] = map[string]float64{}
			roots = append(roots, i)
		}
	}
	layers := map[string]bool{}
	for i, s := range t.spans {
		if m, ok := perRoot[s.parent]; ok {
			layer, _, _ := strings.Cut(s.name, ".")
			m[layer] += self[i]
			layers[layer] = true
		}
	}
	out := map[string][]float64{}
	for layer := range layers {
		for _, r := range roots {
			out[layer] = append(out[layer], perRoot[r][layer])
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
