package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeConfig shrinks every workload so the whole suite runs in seconds.
func smokeConfig(t *testing.T) config {
	return config{
		Seed:           3,
		Seconds:        0.3,
		DataDir:        t.TempDir(),
		Nucleus:        100,
		Shell:          600,
		Instances:      2,
		IngestScale:    0.01,
		SetupReps:      2,
		ColdSetupReps:  2,
		IngestTraceOps: 1,
		ServeReplay:    600,
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at reduced
// size: every named metric is present and finite, end-to-end metrics
// are positive, and no answer fails its check.
func TestWorkloadsSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, lines, err := runWorkload(w.name, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d\n%v", w.name, traced, res.Correct, res.Failed, res.Attempted, lines)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s missing or not finite", w.name, traced, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.name, s.Name, m.Unit, s.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.Name, m.Value)
				}
			}
		}
	}
}

// TestWrongReferenceCounted proves the checks bite: with every reference
// optimum off by one, every workload counts failures and is not correct.
func TestWrongReferenceCounted(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.RefOffset = 1
	for _, w := range workloads {
		res, _, err := runWorkload(w.name, cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong reference not detected: correct=%v failed=%d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestTracedCountsExact checks the per-layer counts that must repeat
// exactly: core.nodes of search-cold is identical between two replays,
// and ingest-answer branches no nodes at all.
func TestTracedCountsExact(t *testing.T) {
	cfg := smokeConfig(t)
	var nodes []float64
	for i := 0; i < 2; i++ {
		res, _, err := runWorkload("search-cold", cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, res.Metrics["core.nodes"].Value)
	}
	if nodes[0] != nodes[1] || nodes[0] == 0 {
		t.Errorf("search-cold core.nodes %v, want two equal non-zero counts", nodes)
	}
	res, _, err := runWorkload("ingest-answer", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics["core.nodes"].Value; n != 0 {
		t.Errorf("ingest-answer core.nodes = %v, want 0", n)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// names exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name       string
		json, prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.json), len(c.prog))
		}
		for i := range c.json {
			if c.json[i] != c.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, c.json[i], c.prog[i])
			}
		}
	}
}
