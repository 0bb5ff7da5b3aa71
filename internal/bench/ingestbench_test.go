package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Tiny-scale ingest smoke: the full SNAP → stream → prune → reduce →
// search flow, the record invariants, and the instance cache.
func TestIngestBenchSmoke(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := WriteIngestBench(Config{Scale: 0.01}, &buf, "", 0, 0, dir); err != nil {
		t.Fatal(err)
	}
	var res IngestBenchResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if res.Vertices == 0 || res.Edges == 0 {
		t.Fatalf("empty instance: %+v", res)
	}
	if res.Stream.Edges != res.Edges || res.Stream.Vertices != res.Vertices {
		t.Fatalf("stream stats disagree with record: %+v", res)
	}
	if !res.ReduceMatch {
		t.Fatal("parallel reduction diverged from serial")
	}
	if res.BestSize != ingestPlantSize {
		t.Fatalf("BestSize = %d, want the planted %d", res.BestSize, ingestPlantSize)
	}
	if res.Stream.RunsSpilled == 0 {
		t.Fatalf("the builder did not spill: %+v", res.Stream)
	}
	if res.MemRatio <= 0 || res.MemRatio >= 2 {
		t.Fatalf("streaming mem ratio %.3f outside (0, 2)", res.MemRatio)
	}
	if res.Components < 2 {
		t.Fatalf("expected component fan-out, got %d", res.Components)
	}
	if res.PeakAllocBytes == 0 {
		t.Fatal("peak alloc sampler recorded nothing")
	}

	// Second run hits the SNAP cache: the pair must not be rewritten.
	stem := filepath.Join(dir, "ingest_seed1_scale0.01")
	before, err := os.Stat(stem + ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteIngestBench(Config{Scale: 0.01}, io.Discard, "", 0, 0, dir); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(stem + ".snap")
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("cached SNAP pair was rewritten on the second run")
	}
}

func TestIngestBenchMergeAndGates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_core.json")
	rec, err := json.MarshalIndent(CoreBenchResult{Graph: CoreBenchGraph{Name: "bigcomp-giant"}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteIngestBench(Config{Scale: 0.01}, io.Discard, path, 0, 2.0, dir); err != nil {
		t.Fatal(err)
	}
	merged, err := LoadCoreBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Ingest == nil || merged.Ingest.Instance != "ingest-giant" {
		t.Fatalf("ingest record not merged: %+v", merged.Ingest)
	}
	if merged.Graph.Name != "bigcomp-giant" {
		t.Fatal("merge clobbered the core record")
	}

	// The deterministic memory gate must fail when set below the
	// actual ratio (which the smoke test pinned under 2).
	err = WriteIngestBench(Config{Scale: 0.01}, io.Discard, "", 0, 0.5, dir)
	if err == nil || !strings.Contains(err.Error(), "gate") {
		t.Fatalf("mem-ratio gate did not fire: %v", err)
	}

	// The speedup gate must refuse to run single-core rather than
	// record a meaningless ~1.0x verdict.
	if runtime.GOMAXPROCS(0) < 2 {
		err = WriteIngestBench(Config{Scale: 0.01}, io.Discard, "", 1.0, 0, dir)
		if err == nil || !strings.Contains(err.Error(), "multi-core") {
			t.Fatalf("speedup gate accepted a single-core run: %v", err)
		}
	}
}
