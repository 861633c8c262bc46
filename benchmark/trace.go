package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds on the tracer's clock. Parent names the enclosing span of
// the same job ("" for the job's root); within one job a name is used
// once, so (Job, Parent) identifies the parent span.
type span struct {
	Job    string `json:"job"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan is the name of every job's root: client issue to verified
// result in hand, the interval the latency metrics measure.
const rootSpan = "job"

// tracer collects spans in memory during the traced pass and writes
// them out when the pass ends. A nil *tracer is the untraced pass:
// every method is a no-op.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// at converts a reading of the process clock to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(tm.Sub(t.base))
}

// now is the tracer's clock. It is handed to serve.Config.Now in the
// traced pass so that Snapshot timestamps and spans share one
// monotonic time base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(job, name, parent string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Job: job, Name: name, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// traceSummary is what the spans of one pass explain.
type traceSummary struct {
	// Accounted is the share of root-span time covered by the roots'
	// child spans, summed over jobs.
	Accounted float64
	// SelfNS is, per span name, the summed self time: the span's
	// duration minus the part of it its children cover.
	SelfNS map[string]int64
}

// summarize computes self times and the accounted share.
func summarize(spans []span) traceSummary {
	sum := traceSummary{SelfNS: make(map[string]int64)}
	type key struct{ job, parent string }
	children := make(map[key][]span)
	for _, s := range spans {
		children[key{s.Job, s.Parent}] = append(children[key{s.Job, s.Parent}], s)
	}
	var rootNS, coveredNS int64
	for _, s := range spans {
		covered := coverage(s, children[key{s.Job, s.Name}])
		sum.SelfNS[s.Name] += s.End - s.Start - covered
		if s.Name == rootSpan {
			rootNS += s.End - s.Start
			coveredNS += covered
		}
	}
	sum.Accounted = ratio(float64(coveredNS), float64(rootNS))
	return sum
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's. Siblings may overlap: a job can start
// running before the POST that submitted it has returned.
func coverage(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, k int) bool { return kids[i].Start < kids[k].Start })
	var total int64
	edge := parent.Start
	for _, c := range kids {
		lo, hi := max(c.Start, edge), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// write stores the spans as JSON lines in dir/<workload>.spans.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
