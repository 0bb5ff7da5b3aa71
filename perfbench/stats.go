package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables
// below are the benchmark's whole output vocabulary; BENCHMARK.json at
// the repository root mirrors them (the smoke test checks that).
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run (-trace 0) reports on every
// workload. All of them are non-zero by construction.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer is what a traced run (-trace 1) reports. A metric of a
// layer the workload does not exercise reads 0 (for example serve.* on
// search-cold).
var perLayer = []metricSpec{
	{"graph.load_s", "s"},
	{"graph.edges_per_s", "1/s"},
	{"graph.spilled_bytes", "B"},
	{"graph.peak_over_csr", "1"},
	{"kcore.prune_s", "s"},
	{"kcore.survivor_ratio", "1"},
	{"reduce.pipeline_s", "s"},
	{"reduce.kept_vertices", "count"},
	{"reduce.kept_edges", "count"},
	{"heuristic.heurrfc_s", "s"},
	{"heuristic.gap", "count"},
	{"core.prepare_s", "s"},
	{"core.search_s", "s"},
	{"core.nodes", "count"},
	{"core.nodes_per_s", "1/s"},
	{"core.allocs_per_node", "1"},
	{"core.bound_prune_ratio", "1"},
	{"session.find_s", "s"},
	{"session.self_s", "s"},
	{"session.dominance_skip_ratio", "1"},
	{"session.warm_start_ratio", "1"},
	{"session.snapshots_patched", "count"},
	{"session.snapshots_rippled", "count"},
	{"session.comp_preps_reused", "count"},
	{"session.enum_maintained_ratio", "1"},
	{"sched.steals_per_search", "1"},
	{"sched.spec_win_ratio", "1"},
	{"sched.worker_releases", "count"},
	{"serve.handler_ms.query", "ms"},
	{"serve.handler_ms.grid", "ms"},
	{"serve.handler_ms.enumerate", "ms"},
	{"serve.handler_ms.mutate", "ms"},
	{"serve.registry_ms.query", "ms"},
	{"serve.registry_ms.grid", "ms"},
	{"serve.registry_ms.enumerate", "ms"},
	{"serve.registry_ms.mutate", "ms"},
	{"serve.flush_ms", "ms"},
	{"serve.http_self_ms", "ms"},
	{"serve.cache_hit_ratio", "1"},
	{"serve.ops_per_flush", "1"},
	{"serve.admission_queued_ratio", "1"},
	{"host.calib_ns", "ns"},
	{"trace.overhead_ratio", "1"},
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0 (a counter that never fired).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opRecord is one op of a measured loop. float32 keeps the harness's
// own heap small beside the program's (a 30 s serve-mixed run records
// ~330k ops).
type opRecord struct {
	end  float32 // seconds from the start of the loop to the op's end
	ms   float32 // latency
	pre  float32 // ms of set-up inside the op, before the latency (ingest-answer)
	kind uint8   // workload-defined; kind 0 ops are the latency samples
	key  uint16  // workload-defined; ops of one key do the same work
}

// opLog records the ops of one measured loop.
type opLog struct {
	start time.Time
	ops   []opRecord
}

func newOpLog(start time.Time, capacity int) *opLog {
	return &opLog{start: start, ops: make([]opRecord, 0, capacity)}
}

// add records an op that ended at end after pre of set-up and lat of
// latency.
func (l *opLog) add(end time.Time, pre, lat time.Duration, kind uint8, key uint16) {
	l.ops = append(l.ops, opRecord{float32(end.Sub(l.start).Seconds()), float32(ms(lat)), float32(ms(pre)), kind, key})
}

// windowSeconds is the length of the windows a measured loop is cut
// into. The shared host this benchmark runs on slows down by 20–40% in
// stretches of 5–25 s (see README.md); 2 s windows are short enough that
// a 30 s run holds several quiet ones.
const windowSeconds = 2

// quiet cuts the loop, run for span seconds, into windows of
// windowSeconds by op end time and keeps the faster half. A window's
// speed is the median op time of each of its ops' keys over the whole
// loop, summed, over the time its ops took: how fast the host ran, not
// which ops fell into the window. quiet returns the ops of the kept
// windows and their op time in seconds: the checks and heap collection
// the client runs between ops are not the program's. An op that ends
// after the last full window counts in it.
func (l *opLog) quiet(span float64) (kept []opRecord, seconds float64, windows int) {
	byKey := make(map[uint16][]float64)
	for _, op := range l.ops {
		byKey[op.key] = append(byKey[op.key], float64(op.pre+op.ms))
	}
	typical := make(map[uint16]float64, len(byKey))
	for k, v := range byKey {
		typical[k] = median(v)
	}
	windows = max(int(span/windowSeconds), 1)
	type window struct {
		ops              []opRecord
		typical, seconds float64
	}
	ws := make([]window, windows)
	for _, op := range l.ops {
		w := min(int(float64(op.end)/windowSeconds), windows-1)
		ws[w].ops = append(ws[w].ops, op)
		ws[w].typical += typical[op.key] / 1e3
		ws[w].seconds += float64(op.pre+op.ms) / 1e3
	}
	speed := func(w window) float64 { return ratio(w.typical, w.seconds) }
	sort.SliceStable(ws, func(i, j int) bool { return speed(ws[i]) > speed(ws[j]) })
	for _, w := range ws[:(windows+1)/2] {
		kept = append(kept, w.ops...)
		seconds += w.seconds
	}
	return kept, seconds, windows
}

// summary is what a workload reports of its measured loop.
type summary struct {
	p50, tail, throughput float64
	setup                 float64 // median pre of the kept ops
	beyond, samples       int     // kind 0 samples beyond the tail, of all kept
	kept, windows         int
}

// summarize computes the latency and throughput metrics of one measured
// loop over the quieter half of its windows (quiet). tailPct is the
// workload's fixed tail percentile; the note records how many samples
// actually lay beyond it.
func (l *opLog) summarize(span, tailPct float64) summary {
	kept, seconds, windows := l.quiet(span)
	var lat, pre []float64
	for _, op := range kept {
		if op.kind == 0 {
			lat = append(lat, float64(op.ms))
			pre = append(pre, float64(op.pre)/1e3)
		}
	}
	sort.Float64s(lat)
	s := summary{samples: len(lat), kept: (windows + 1) / 2, windows: windows}
	s.p50, s.tail, s.setup = median(lat), quantile(lat, tailPct/100), median(pre)
	s.throughput = ratio(float64(len(kept)), seconds)
	for i := len(lat) - 1; i >= 0 && lat[i] > s.tail; i-- {
		s.beyond++
	}
	return s
}

func (s summary) note(o *outcome, tailPct float64) {
	o.note("metrics over the faster %d of %d %d-second windows: %d latency samples, %d beyond latency_tail_ms (p%g)",
		s.kept, s.windows, windowSeconds, s.samples, s.beyond, tailPct)
}

// kindP50 is the median latency of every op of a kind, over the whole
// loop.
func (l *opLog) kindP50(kind uint8) (p50 float64, n int) {
	var lat []float64
	for _, op := range l.ops {
		if op.kind == kind {
			lat = append(lat, float64(op.ms))
		}
	}
	return median(lat), len(lat)
}

// heapSampler records the high-water mark of live heap objects in each
// windowSeconds window of a run. It reads runtime/metrics, which does
// not stop the world, so sampling does not perturb the latencies it runs
// beside.
type heapSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peaks []uint64 // per window
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	w := int(time.Since(h.start).Seconds() / windowSeconds)
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.peaks) <= w {
		h.peaks = append(h.peaks, 0)
	}
	h.peaks[w] = max(h.peaks[w], s[0].Value.Uint64())
}

// stopMiB ends sampling and returns the median of the windows' peaks in
// MiB. A part window at the end counts in the last full one. One
// window's peak depends on where the collector happened to start a cycle;
// the median over the run does not.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	n := max(int(time.Since(h.start).Seconds()/windowSeconds), 1)
	peaks := make([]float64, n)
	for i, p := range h.peaks {
		peaks[min(i, n-1)] = max(peaks[min(i, n-1)], float64(p)/(1<<20))
	}
	return median(peaks)
}

// calibNs times a fixed CPU-only kernel (xorshift mixing and popcounts
// over a 32 KiB table, no allocation) five times and returns the timings
// in nanoseconds. It normalises nothing: it is reported beside the
// workload so host drift can be told apart from code changes.
func calibNs() []float64 {
	var table [4096]uint64
	x := uint64(0x9e3779b97f4a7c15)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	var ts []float64
	var sink int
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for round := 0; round < 64; round++ {
			for i := range table {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				table[i] ^= x
				sink += bits.OnesCount64(table[i] & table[(i*7+round)&4095])
			}
		}
		ts = append(ts, float64(time.Since(start).Nanoseconds()))
	}
	if sink == -1 {
		println() // keeps the loop from being optimised away
	}
	return ts
}
