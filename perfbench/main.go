// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks every answer against an independent
// reference, and prints every metric by name with its unit; the last
// line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 a single-client traced replay of the same op
// sequence reports the per-layer ones. See README.md for the workloads,
// the metric definitions and which layer metric should move which
// end-to-end metric. Build and run it from the repository root with
// perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"fairclique/internal/graph"
)

// config fixes a run's inputs. fullConfig is the benchmark; the smoke
// test shrinks the instances.
type config struct {
	Seed    uint64
	Seconds float64
	DataDir string // caches (SNAP files, reference optima) and span dumps

	Nucleus, Shell int // bigcomp instance: dense nucleus size, cycle-shell length
	Instances      int // bigcomp instances per search-cold run
	IngestScale    float64
	SetupReps      int // set-ups per serve-mixed run; setup_s is their median
	ColdSetupReps  int // set-ups per search-cold run (~10 ms each)
	IngestTraceOps int // ops of the traced ingest-answer replay
	ServeReplay    int // requests per pass of the traced serve-mixed replay

	// RefOffset is added to every reference optimum. It is non-zero only
	// in the smoke test that proves a wrong answer is counted as failed.
	RefOffset int
}

func fullConfig(seed uint64, seconds float64, dataDir string) config {
	return config{
		Seed:           seed,
		Seconds:        seconds,
		DataDir:        dataDir,
		Nucleus:        230,
		Shell:          graph.ChunkBits + 1024,
		Instances:      6,
		IngestScale:    1,
		SetupReps:      5,
		ColdSetupReps:  31,
		IngestTraceOps: 4,
		ServeReplay:    8192,
	}
}

func (c config) duration() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// outcome is what a workload reports: its op counts, its metric values
// (units come from the metric tables) and human-readable notes.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
	firstFailure      error
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check counts one attempted op and, if err is non-nil, one failure.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstFailure == nil {
			o.firstFailure = err
		}
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload pairs the untraced run (end-to-end metrics) with the traced
// replay (per-layer metrics) of one workload.
type workload struct {
	name  string
	run   func(config) (*outcome, error)
	trace func(config, *tracer) (*outcome, error)
}

var workloads = []workload{
	{"search-cold", runSearchCold, traceSearchCold},
	{"ingest-answer", runIngest, traceIngest},
	{"serve-mixed", runServe, traceServe},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload and assembles its result; the notes are
// the human-readable lines printed before it.
func runWorkload(name string, cfg config, traced bool) (*result, []string, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	calibBefore := calibNs()
	var o *outcome
	var err error
	specs := endToEnd
	if traced {
		specs = perLayer
		tr := newTracer()
		o, err = w.trace(cfg, tr)
		if err == nil {
			var path string
			path, err = tr.write(filepath.Join(cfg.DataDir, "trace"), fmt.Sprintf("%s-seed%d.jsonl", name, cfg.Seed))
			o.note("spans: %d written to %s", len(tr.spans), path)
		}
	} else {
		o, err = w.run(cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	calib := median(append(calibBefore, calibNs()...))
	if traced {
		o.metrics["host.calib_ns"] = calib
	}
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	var lines []string
	for _, s := range specs {
		v, ok := o.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s missing or not finite (%v)", name, s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{v, s.Unit}
		lines = append(lines, fmt.Sprintf("%-32s %14.6g %s", s.Name, v, s.Unit))
	}
	lines = append(lines, o.notes...)
	lines = append(lines,
		fmt.Sprintf("host.calib_ns %.0f ns (CPU-only kernel, for host drift)", calib),
		fmt.Sprintf("failed_ratio %g (%d failed of %d attempted)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted))
	if o.firstFailure != nil {
		lines = append(lines, "first failure: "+o.firstFailure.Error())
	}
	return res, lines, nil
}

func main() {
	name := flag.String("workload", "", "workload: search-cold, ingest-answer or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measured seconds of an untraced run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	data := flag.String("data", filepath.Join(".bench_build", "perfbench-data"), "directory for caches and span dumps")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, lines, err := runWorkload(*name, fullConfig(*seed, *seconds, *data), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d trace %d\n", *name, *seed, *trace)
	for _, l := range lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}
