package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairclique/internal/graph"
)

func TestCoreBenchSmoke(t *testing.T) {
	// Scale 1 on purpose: it is the configuration BENCH_core.json is
	// recorded at, so the allocs/node acceptance bound is meaningful
	// (smaller scales have too few nodes to amortize component setup).
	var buf bytes.Buffer
	if err := WriteCoreBench(Config{Scale: 1}, &buf, ""); err != nil {
		t.Fatal(err)
	}
	var res CoreBenchResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("BENCH_core.json output not valid JSON: %v", err)
	}
	if len(res.Runs) != 2 || res.Runs[0].Workers != 1 || res.Runs[1].Workers != 4 {
		t.Fatalf("want runs for workers 1 and 4, got %+v", res.Runs)
	}
	for _, run := range res.Runs {
		if run.Nodes <= 0 || run.Seconds <= 0 || run.NodesPerSec <= 0 {
			t.Fatalf("degenerate run record: %+v", run)
		}
	}
	if res.Runs[0].BestSize != res.Runs[1].BestSize {
		t.Fatalf("workers 1 and 4 disagree on the optimum: %d vs %d",
			res.Runs[0].BestSize, res.Runs[1].BestSize)
	}
	if res.SpeedupW4OverW1 <= 0 {
		t.Fatalf("speedup not computed: %+v", res)
	}
	// The perf record must be measured on a cap-crossing instance: the
	// acceptance criterion is nodes/sec on a >4096-vertex component.
	if res.Graph.Vertices <= graph.ChunkBits {
		t.Fatalf("bench instance has %d vertices; want > %d", res.Graph.Vertices, graph.ChunkBits)
	}
	for _, run := range res.Runs {
		if run.AllocsPerNode > 0.01 {
			t.Fatalf("workers=%d: %.4f allocs/node; want <= 0.01", run.Workers, run.AllocsPerNode)
		}
	}
}

// The regression gate: >10% nodes/sec drops fail, smaller wobble and
// instance changes do not.
func TestCompareCoreBench(t *testing.T) {
	mk := func(w1, w4 float64) CoreBenchResult {
		return CoreBenchResult{
			Graph: CoreBenchGraph{Name: "bigcomp-giant", Vertices: 5000, Edges: 20000},
			Runs: []CoreBenchRun{
				{Workers: 1, NodesPerSec: w1},
				{Workers: 4, NodesPerSec: w4},
			},
		}
	}
	var out bytes.Buffer
	if err := CompareCoreBench(mk(1e6, 1e6), mk(0.95e6, 1.1e6), &out); err != nil {
		t.Fatalf("5%% wobble flagged as regression: %v", err)
	}
	if !strings.Contains(out.String(), "workers") {
		t.Fatalf("no delta table emitted:\n%s", out.String())
	}
	out.Reset()
	err := CompareCoreBench(mk(1e6, 1e6), mk(0.85e6, 1e6), &out)
	if err == nil {
		t.Fatal("15% regression not flagged")
	}
	if !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("regression error should name workers=1: %v", err)
	}
	// A changed instance cannot be compared; the gate is skipped.
	out.Reset()
	other := mk(0.1e6, 0.1e6)
	other.Graph.Name = "gnp-giant"
	if err := CompareCoreBench(other, mk(1e6, 1e6), &out); err != nil {
		t.Fatalf("instance mismatch should skip the gate: %v", err)
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Fatalf("instance mismatch not reported:\n%s", out.String())
	}
}

// A merge replaces only its experiment's top-level key: every other
// key, including ones no struct here declares, keeps its bytes and its
// place, and the new block reads back through LoadCoreBench.
func TestMergeCoreBlockKeepsOtherKeys(t *testing.T) {
	const record = `{
  "graph": {
    "name": "bigcomp-giant",
    "vertices": 5350,
    "edges": 18485
  },
  "gomaxprocs": 2,
  "sched": {
    "speedup_w4_over_w1": 1.11,
    "donations": 13
  },
  "ingest": {
    "instance": "old"
  },
  "retired": [1, 2]
}
`
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if err := os.WriteFile(path, []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	ingest := IngestBenchResult{Instance: "ingest-giant", Components: 601}
	if err := mergeCoreBlock(path, "ingest", ingest); err != nil {
		t.Fatal(err)
	}
	block, err := json.MarshalIndent(ingest, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	old := "{\n    \"instance\": \"old\"\n  }"
	want := strings.Replace(record, old, string(block), 1)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("merged record:\n%s\nwant:\n%s", got, want)
	}
	rec, err := LoadCoreBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Ingest == nil || rec.Ingest.Components != 601 || rec.Graph.Name != "bigcomp-giant" {
		t.Fatalf("merged record reads back as %+v", rec)
	}

	// A key the record lacks goes after the last one.
	if err := mergeCoreBlock(path, "enum", EnumBenchResult{}); err != nil {
		t.Fatal(err)
	}
	got2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.TrimSuffix(string(got), "\n}\n") + ",\n  \"enum\": "
	if !strings.HasPrefix(string(got2), head) {
		t.Fatalf("appended record:\n%s\nwant it to start:\n%s", got2, head)
	}
	if rec, err := LoadCoreBench(path); err != nil || rec.Enum == nil {
		t.Fatalf("appended enum block reads back as %+v, %v", rec.Enum, err)
	}
}
