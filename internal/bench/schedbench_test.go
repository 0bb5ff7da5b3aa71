package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The parallel-search experiment must produce a well-formed record
// whose serial and split runs agree cell for cell — the property that
// makes the recorded speedups trustworthy. Run at a reduced scale; the
// full-scale record is regenerated by `make bench` and the CI-gated
// multi-core run is `make bench-parallel`.
func TestSchedBenchSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSchedBench(Config{Scale: 0.25}, &buf, "", 0); err != nil {
		t.Fatal(err)
	}
	var res SchedBenchResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("sched record not valid JSON: %v", err)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("grid has %d cells, want the 9-cell k=2..4 × δ=1..3", len(res.Cells))
	}
	if !res.AllMatch {
		t.Fatal("serial and split runs diverged on cell answers")
	}
	if res.W1Seconds <= 0 || res.SplitW4Seconds <= 0 {
		t.Fatalf("degenerate timing record: %+v", res)
	}
	if res.Workers != schedWorkers {
		t.Fatalf("recorded workers %d, want %d", res.Workers, schedWorkers)
	}
}

// -merge embeds the sched record into an existing core record without
// disturbing it; -min-speedup fails when the measured speedup cannot
// clear the gate (always, here: a gate of 1e9) and reports the
// multi-core requirement on single-core machines.
func TestSchedBenchMergeAndGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_core.json")
	var buf bytes.Buffer
	if err := WriteCoreBench(Config{Scale: 0.15, MaxNodes: 50000}, &buf, ""); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := WriteSchedBench(Config{Scale: 0.15}, &sink, path, 0); err != nil {
		t.Fatal(err)
	}
	merged, err := LoadCoreBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Sched == nil {
		t.Fatal("sched record not embedded")
	}
	if len(merged.Runs) != 2 || merged.Grid != nil {
		t.Fatalf("core record disturbed by merge: %+v", merged)
	}

	sink.Reset()
	err = WriteSchedBench(Config{Scale: 0.15}, &sink, "", 1e9)
	if err == nil {
		t.Fatal("an unreachable -min-speedup gate must fail")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		if !strings.Contains(err.Error(), "multi-core") {
			t.Fatalf("single-core gate error should demand a multi-core run, got: %v", err)
		}
	} else if !strings.Contains(err.Error(), "gate") {
		t.Fatalf("gate error should name the gate, got: %v", err)
	}
}
