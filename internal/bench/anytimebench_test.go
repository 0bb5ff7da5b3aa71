package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The anytime experiment must produce a well-formed record whose exact
// reference is exact and whose budget points keep the sandwich — the
// properties WriteAnytimeBench hard-fails on. Run at a reduced scale;
// the full-scale record is regenerated by `make bench`.
func TestAnytimeBenchSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAnytimeBench(Config{Scale: 0.2}, &buf, ""); err != nil {
		t.Fatal(err)
	}
	var res AnytimeBenchResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("anytime record not valid JSON: %v", err)
	}
	if res.ExactSeconds <= 0 || res.ExactSize <= 0 {
		t.Fatalf("degenerate exact reference: %+v", res)
	}
	if len(res.Points) != len(anytimeBudgetFractions) {
		t.Fatalf("%d points, want %d", len(res.Points), len(anytimeBudgetFractions))
	}
	for _, p := range res.Points {
		if p.Size > res.ExactSize || p.UpperBound < res.ExactSize {
			t.Fatalf("point broke the sandwich: %+v (optimum %d)", p, res.ExactSize)
		}
		if p.Gap != p.UpperBound-p.Size {
			t.Fatalf("gap accounting: %+v", p)
		}
	}
	// The last point's budget is the exact run's whole tree, and the
	// serial search walks that tree again, so it must finish exact.
	last := res.Points[len(res.Points)-1]
	if !last.Exact || last.Size != res.ExactSize || last.Nodes != res.ExactNodes {
		t.Fatalf("full-budget point %+v; the exact run read size %d in %d nodes",
			last, res.ExactSize, res.ExactNodes)
	}
}

// -merge must embed the anytime record into an existing core record
// without disturbing its runs.
func TestAnytimeBenchMerge(t *testing.T) {
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
	if err := WriteAnytimeBench(Config{Scale: 0.15}, &sink, path); err != nil {
		t.Fatal(err)
	}
	merged, err := LoadCoreBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Anytime == nil {
		t.Fatal("anytime record not embedded")
	}
	if len(merged.Runs) != 2 {
		t.Fatalf("core runs disturbed by merge: %+v", merged.Runs)
	}
	if len(merged.Anytime.Points) == 0 {
		t.Fatal("embedded anytime record has no points")
	}
}
