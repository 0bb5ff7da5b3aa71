package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Experiments run at a tiny scale in unit tests — correctness of the
// harness plumbing, not timing fidelity, is under test here. The full
// runs live in the repository-root benchmarks and cmd/benchmark.
const testScale = 0.06

func testConfig(buf *bytes.Buffer) Config {
	return Config{Scale: testScale, Out: buf, MaxNodes: 2_000_000}
}

func TestFig4(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig4(testConfig(&buf))
	// 5 datasets × 5 k values.
	if len(rows) != 25 {
		t.Fatalf("%d rows; want 25", len(rows))
	}
	for _, r := range rows {
		if len(r.Stages) != 3 {
			t.Fatalf("%s k=%d: %d stages", r.Dataset, r.K, len(r.Stages))
		}
		// Monotone shrink through the pipeline and vs the original.
		prevV, prevE := r.OrigV, r.OrigE
		for _, s := range r.Stages {
			if s.Vertices > prevV || s.Edges > prevE {
				t.Fatalf("%s k=%d: stage %s grew (%d/%d -> %d/%d)",
					r.Dataset, r.K, s.Name, prevV, prevE, s.Vertices, s.Edges)
			}
			prevV, prevE = s.Vertices, s.Edges
		}
	}
	if !strings.Contains(buf.String(), "Fig. 4") {
		t.Fatal("missing header")
	}
}

// Larger k must never leave a larger graph (the paper's headline trend
// in Fig. 4): reductions are monotone in k per dataset and stage.
func TestFig4MonotoneInK(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig4(testConfig(&buf))
	last := map[string][3]int32{}
	for _, r := range rows {
		key := r.Dataset
		cur := [3]int32{r.Stages[0].Edges, r.Stages[1].Edges, r.Stages[2].Edges}
		if prev, ok := last[key]; ok {
			for i := range cur {
				if cur[i] > prev[i] {
					t.Fatalf("%s: stage %d edges grew with k (%d -> %d)", key, i, prev[i], cur[i])
				}
			}
		}
		last[key] = cur
	}
}

func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig5(testConfig(&buf))
	if len(rows) != 5 {
		t.Fatalf("%d rows; want 5", len(rows))
	}
	for _, r := range rows {
		if r.Dataset != "aminer-sim" {
			t.Fatalf("unexpected dataset %s", r.Dataset)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(testConfig(&buf))
	// 6 datasets × (5 k + 5 δ).
	if len(rows) != 60 {
		t.Fatalf("%d rows; want 60", len(rows))
	}
	for _, r := range rows {
		if len(r.Times) != 6 || len(r.Nodes) != 6 || len(r.RootPrunes) != 6 {
			t.Fatalf("%s %s=%d: %d/%d/%d configs of times/nodes/root prunes; want 6 each",
				r.Dataset, r.Vary, r.Value, len(r.Times), len(r.Nodes), len(r.RootPrunes))
		}
		for _, d := range r.Times {
			if d <= 0 {
				t.Fatalf("non-positive runtime recorded")
			}
		}
		// Each runtime cell reads "ms / nodes / root prunes".
		cell := fmt.Sprintf(" / %d / %d |", r.Nodes[0], r.RootPrunes[0])
		if !strings.Contains(buf.String(), cell) {
			t.Fatalf("%s %s=%d: Markdown lacks the cell %q", r.Dataset, r.Vary, r.Value, cell)
		}
	}
	if !strings.Contains(buf.String(), "(ms / nodes / root prunes)") {
		t.Fatal("Table II header does not name the nodes and root-prune columns")
	}
}

func TestFig6AndFig7(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig6(testConfig(&buf))
	if len(rows) != 50 {
		t.Fatalf("Fig6: %d rows; want 50", len(rows))
	}
	rows7 := Fig7(testConfig(&buf))
	if len(rows7) != 10 {
		t.Fatalf("Fig7: %d rows; want 10", len(rows7))
	}
	for _, r := range append(rows, rows7...) {
		if r.TPlain <= 0 || r.TUB <= 0 || r.TUBHeur <= 0 {
			t.Fatalf("%s: missing timings %+v", r.Dataset, r)
		}
	}
}

func TestFig8(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig8(testConfig(&buf))
	if len(rows) != 6 {
		t.Fatalf("%d rows; want 6", len(rows))
	}
	for _, r := range rows {
		if r.HeurSize > r.ExactSize {
			t.Fatalf("%s: heuristic %d beats exact %d", r.Dataset, r.HeurSize, r.ExactSize)
		}
		if r.ExactSize == 0 {
			t.Fatalf("%s: no fair clique found at scale %.2f", r.Dataset, testScale)
		}
	}
}

func TestFig9(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig9(testConfig(&buf))
	if len(rows) != 10 {
		t.Fatalf("%d rows; want 10 (5 percents × 2 axes)", len(rows))
	}
	seen := map[string][]int{}
	for _, r := range rows {
		seen[r.Vary] = append(seen[r.Vary], r.Percent)
	}
	if len(seen["n"]) != 5 || len(seen["m"]) != 5 {
		t.Fatalf("axes incomplete: %+v", seen)
	}
}

func TestRunCaseStudies(t *testing.T) {
	var buf bytes.Buffer
	// Case studies have fixed sizes (not scaled).
	results := RunCaseStudies(Config{Scale: 1, Out: &buf, MaxNodes: 5_000_000})
	if len(results) != 4 {
		t.Fatalf("%d case studies; want 4", len(results))
	}
	for _, r := range results {
		if r.Size < 10 {
			t.Fatalf("%s: size %d below the planted community", r.Name, r.Size)
		}
		if r.CountA < 5 || r.CountB < 5 {
			t.Fatalf("%s: counts %d/%d violate k=5", r.Name, r.CountA, r.CountB)
		}
		if d := r.CountA - r.CountB; d > 3 || d < -3 {
			t.Fatalf("%s: counts %d/%d violate δ=3", r.Name, r.CountA, r.CountB)
		}
		if len(r.Members) != r.Size {
			t.Fatalf("%s: %d labels for size %d", r.Name, len(r.Members), r.Size)
		}
	}
	out := buf.String()
	for _, name := range []string{"aminer", "dbai", "nba", "imdb"} {
		if !strings.Contains(out, name) {
			t.Fatalf("output missing case study %s", name)
		}
	}
}

func TestRunAllSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var buf bytes.Buffer
	start := time.Now()
	RunAll(Config{Scale: 0.04, Out: &buf, MaxNodes: 1_000_000})
	t.Logf("RunAll at scale 0.04 took %v", time.Since(start))
	for _, h := range []string{"Table I", "Fig. 4", "Fig. 5", "Table II", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10"} {
		if !strings.Contains(buf.String(), h) {
			t.Fatalf("RunAll output missing %q", h)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.scale() != 1 {
		t.Fatal("zero scale should default to 1")
	}
	if c.out() == nil {
		t.Fatal("nil Out should discard, not be nil")
	}
	c = Config{Scale: -2}
	if c.scale() != 1 {
		t.Fatal("negative scale should default to 1")
	}
}

func TestBestExtraFor(t *testing.T) {
	if bestExtraFor("themarker-sim").String() != "ubAD+ubCP" {
		t.Fatal("themarker should use the colorful path bound")
	}
	if bestExtraFor("dblp-sim").String() != "ubAD+ubCD" {
		t.Fatal("dblp should use the colorful degeneracy bound")
	}
}

func TestAblation(t *testing.T) {
	var buf bytes.Buffer
	rows := Ablation(testConfig(&buf))
	// 6 datasets × 5 variants.
	if len(rows) != 30 {
		t.Fatalf("%d rows; want 30", len(rows))
	}
	// All variants of a dataset must agree on the optimum size (they
	// are all exact algorithms), and the full variant must explore no
	// more nodes than the plain one.
	byDataset := map[string][]AblationRow{}
	for _, r := range rows {
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	for name, rs := range byDataset {
		var full, plain *AblationRow
		for i := range rs {
			if rs[i].Size != rs[0].Size {
				t.Fatalf("%s: variant %s size %d != %d", name, rs[i].Variant, rs[i].Size, rs[0].Size)
			}
			switch rs[i].Variant {
			case "full":
				full = &rs[i]
			case "plain":
				plain = &rs[i]
			}
		}
		if full == nil || plain == nil {
			t.Fatalf("%s: missing variants", name)
		}
		if full.Nodes > plain.Nodes {
			t.Errorf("%s: full variant explored more nodes (%d) than plain (%d)",
				name, full.Nodes, plain.Nodes)
		}
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Fatal("missing header")
	}
}
