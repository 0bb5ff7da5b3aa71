package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The delta experiment must agree with the cold rebuild and answer
// every post-delta requery without branching (the retained seed meets
// the relaxed bound). The shell deltas keep the reduction by pointer,
// and with it the built nucleus machinery; the nucleus deletion
// re-peels the reduction, which gets a fresh Prepared and keeps none.
func TestDeltaBenchSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDeltaBench(Config{Scale: 0.2}, &buf, ""); err != nil {
		t.Fatal(err)
	}
	var res DeltaBenchResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name                     string
		reused, patched, rippled int64
		keepsPreps               bool // at least one built compPrep kept, or none
	}{
		{"insert-shell-chord", 1, 0, 0, true},
		{"delete-shell-edge", 1, 0, 0, true},
		{"delete-nucleus-edge", 0, 0, 1, false},
	}
	if len(res.Runs) != len(want) {
		t.Fatalf("got %d scenarios, want %d", len(res.Runs), len(want))
	}
	for i, run := range res.Runs {
		w := want[i]
		if run.Name != w.name {
			t.Fatalf("scenario %d is %s, want %s", i, run.Name, w.name)
		}
		if !run.SizesMatch {
			t.Fatalf("%s: warm session diverged from cold rebuild", run.Name)
		}
		if run.Size < 4 {
			t.Fatalf("%s: implausible optimum %d for (2,2) on the nucleus", run.Name, run.Size)
		}
		if run.RequeryNodes != 0 {
			t.Fatalf("%s: post-Apply requery branched %d nodes; the retained bound+seed should answer it", run.Name, run.RequeryNodes)
		}
		if run.SnapshotsReused != w.reused || run.SnapshotsPatched != w.patched || run.SnapshotsRippled != w.rippled {
			t.Fatalf("%s: reused/patched/rippled = %d/%d/%d, want %d/%d/%d", run.Name,
				run.SnapshotsReused, run.SnapshotsPatched, run.SnapshotsRippled, w.reused, w.patched, w.rippled)
		}
		if (run.CompPrepsReused > 0) != w.keepsPreps {
			t.Fatalf("%s: kept %d compPreps, want some kept: %v", run.Name, run.CompPrepsReused, w.keepsPreps)
		}
		if run.ApplySeconds <= 0 || run.RebuildSeconds <= 0 {
			t.Fatalf("%s: unmeasured run: %+v", run.Name, run)
		}
	}
}

func TestDeltaBenchMerge(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_core.json")
	rec := CoreBenchResult{Graph: CoreBenchGraph{Name: "bigcomp-giant"}}
	data, _ := json.Marshal(rec)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := WriteDeltaBench(Config{Scale: 0.15}, &sink, path); err != nil {
		t.Fatal(err)
	}
	merged, err := LoadCoreBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Delta == nil || len(merged.Delta.Runs) != 3 {
		t.Fatalf("delta record not merged: %+v", merged.Delta)
	}
}
