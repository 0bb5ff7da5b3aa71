package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer of the program: its name, the op
// it belongs to, the span that caused it (-1 for an op's root) and its
// start and end in nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory; write dumps them at
// exit. Spans are recorded by the benchmark around public calls into
// each layer, never inside the program.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// spanTotals is the aggregate of every span of one name.
type spanTotals struct {
	Count int
	Total time.Duration // summed durations
}

// totals aggregates the spans by name.
func (t *tracer) totals() map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &spanTotals{}
			out[s.Name] = a
		}
		a.Count++
		a.Total += time.Duration(s.End - s.Start)
	}
	return out
}

// meanSeconds is the mean duration per op of the named spans over ops
// ops, in seconds (0 when the span never occurred).
func meanSeconds(tot map[string]*spanTotals, name string, ops int) float64 {
	a := tot[name]
	if a == nil || ops == 0 {
		return 0
	}
	return a.Total.Seconds() / float64(ops)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
