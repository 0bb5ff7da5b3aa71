package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fairclique"
)

func TestBoundNamesComplete(t *testing.T) {
	want := []string{"ad", "deg", "h", "cd", "ch", "cp"}
	for _, name := range want {
		if _, ok := boundNames[name]; !ok {
			t.Errorf("bound %q missing", name)
		}
	}
	if len(boundNames) != len(want) {
		t.Errorf("%d bounds registered; want %d", len(boundNames), len(want))
	}
}

func TestReportFormatting(t *testing.T) {
	g := fairclique.NewGraph(3)
	// Capture stdout.
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	report(g, []int{2, 0, 1}, false, 1500*time.Microsecond)
	report(g, nil, false, time.Millisecond)
	report(g, []int{0, 1}, true, time.Millisecond)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	buf.ReadFrom(r)
	out := buf.String()
	if !strings.Contains(out, "size 3") || !strings.Contains(out, "[0 1 2]") {
		t.Fatalf("report output %q", out)
	}
	if !strings.Contains(out, "no fair clique exists") {
		t.Fatalf("nil-clique output missing: %q", out)
	}
	if !strings.Contains(out, "\n2\n") {
		t.Fatalf("quiet output missing: %q", out)
	}
}

// writeFixture stores a balanced K6 plus a pendant in the text format.
func writeFixture(t *testing.T) string {
	t.Helper()
	g := fairclique.NewGraph(7)
	for v := 0; v < 6; v++ {
		g.SetAttr(v, fairclique.Attr(v%2))
	}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	g.AddEdge(6, 0)
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fairclique.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// runCLI executes this command via `go run .` — a real end-to-end test
// of flag parsing, IO and output.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	return runCLIInput(t, nil, args...)
}

// runCLIInput is runCLI with stdin, when non-nil, fed through a pipe.
func runCLIInput(t *testing.T, stdin []byte, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

func TestCLISearch(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	path := writeFixture(t)
	out, err := runCLI(t, "-graph", path, "-k", "3", "-delta", "0")
	if err != nil {
		t.Fatalf("mfc failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "size 6") {
		t.Fatalf("expected size 6 in output:\n%s", out)
	}
	if !strings.Contains(out, "attribute counts: 3 a, 3 b") {
		t.Fatalf("expected balanced counts:\n%s", out)
	}
}

func TestParseGrid(t *testing.T) {
	specs, err := parseGrid("k=2..4,delta=1..3")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 9 {
		t.Fatalf("k=2..4,delta=1..3 expanded to %d cells, want 9", len(specs))
	}
	if specs[0] != (fairclique.QuerySpec{K: 2, Delta: 1}) {
		t.Fatalf("first cell %+v", specs[0])
	}
	if specs[8] != (fairclique.QuerySpec{K: 4, Delta: 3}) {
		t.Fatalf("last cell %+v", specs[8])
	}

	specs, err = parseGrid("k=1..3,mode=weak")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[1].Mode != fairclique.ModeWeak {
		t.Fatalf("weak grid: %+v", specs)
	}

	specs, err = parseGrid("k=2,delta=0,mode=strong")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Mode != fairclique.ModeStrong {
		t.Fatalf("strong grid: %+v", specs)
	}

	for _, bad := range []string{"k=2..1", "k=x", "delta", "mode=fuzzy", "q=3"} {
		if _, err := parseGrid(bad); err == nil {
			t.Fatalf("parseGrid(%q) should fail", bad)
		}
	}
}

// The grid CLI must answer each cell with the size a single-query run
// reports: the balanced K6 fixture has a 6-clique at (k<=3, δ=0), so
// every cell of k=2..3, δ=0..1 is 6.
func TestCLIGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	path := writeFixture(t)
	out, err := runCLI(t, "-graph", path, "-grid", "k=2..3,delta=0..1")
	if err != nil {
		t.Fatalf("mfc -grid failed: %v\n%s", err, out)
	}
	if strings.Count(out, "size  6") != 4 {
		t.Fatalf("expected four size-6 cells:\n%s", out)
	}
	if !strings.Contains(out, "grid: 4 cells") || !strings.Contains(out, "session:") {
		t.Fatalf("missing grid summary:\n%s", out)
	}
	// Quiet mode prints one size per line.
	out, err = runCLI(t, "-graph", path, "-grid", "k=2..3,delta=0..1", "-q")
	if err != nil {
		t.Fatalf("mfc -grid -q failed: %v\n%s", err, out)
	}
	if strings.Count(out, "6") != 4 {
		t.Fatalf("quiet grid output:\n%s", out)
	}
	// Bad grid specs exit non-zero.
	if _, err := runCLI(t, "-graph", path, "-grid", "k=oops"); err == nil {
		t.Fatal("bad grid spec should fail")
	}
}

func TestCLIModes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	path := writeFixture(t)
	for _, args := range [][]string{
		{"-graph", path, "-k", "3", "-delta", "0", "-heuristic"},
		{"-graph", path, "-k", "3", "-delta", "0", "-enum"},
		{"-graph", path, "-k", "3", "-reduce"},
		{"-graph", path, "-k", "3", "-delta", "0", "-q"},
		{"-graph", path, "-k", "3", "-delta", "0", "-no-heur", "-no-bounds", "-bound", "cp"},
	} {
		out, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("mfc %v failed: %v\n%s", args, err, out)
		}
	}
	// Error paths exit non-zero.
	if _, err := runCLI(t, "-graph", path, "-bound", "nope"); err == nil {
		t.Fatal("unknown bound should fail")
	}
	if _, err := runCLI(t, "-graph", path+".missing"); err == nil {
		t.Fatal("missing file should fail")
	}
	// The Bron–Kerbosch baseline validates its cell like the engine.
	for _, c := range []struct{ k, delta, want string }{
		{"0", "1", "k must be >= 1"},
		{"2", "-1", "delta must be >= 0"},
	} {
		out, err := runCLI(t, "-graph", path, "-k", c.k, "-delta", c.delta, "-enum")
		if err == nil || !strings.Contains(out, c.want) {
			t.Fatalf("-enum -k %s -delta %s: err %v, output %q; want a %q failure", c.k, c.delta, err, out, c.want)
		}
	}
	// ... and finds the fixture's balanced K6, as the engine does.
	enumOut, err := runCLI(t, "-graph", path, "-k", "3", "-delta", "0", "-enum", "-q")
	if err != nil {
		t.Fatalf("mfc -enum -q failed: %v\n%s", err, enumOut)
	}
	if lines := strings.Fields(enumOut); len(lines) == 0 || lines[len(lines)-1] != "6" {
		t.Fatalf("mfc -enum -q printed %q; want 6", enumOut)
	}
	// A -graph that can be read only once (a pipe) answers the same:
	// the baseline runs on the graph already parsed.
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{{"-enum"}, {}} {
		args := append([]string{"-graph", "/dev/stdin", "-k", "3", "-delta", "0", "-q"}, mode...)
		out, err := runCLIInput(t, text, args...)
		if err != nil {
			t.Fatalf("mfc %v on a pipe failed: %v\n%s", args, err, out)
		}
		if lines := strings.Fields(out); len(lines) == 0 || lines[len(lines)-1] != "6" {
			t.Fatalf("mfc %v on a pipe printed %q; want 6", args, out)
		}
	}
}

// The grid range parsing — shared with cmd/benchmark through
// internal/cli — must reject descending and empty ranges with a usage
// error rather than expanding to a silently empty (or wrong) grid.
func TestParseGridRejectsMalformedRanges(t *testing.T) {
	cases := []string{
		"k=4..2,delta=1..3", // descending k
		"k=2..4,delta=3..1", // descending delta
		"k=..4", "k=2..", "k=..", "delta=..2",
		"k=", "delta=x..2", "k=2..y",
	}
	for _, spec := range cases {
		if specs, err := parseGrid(spec); err == nil {
			t.Errorf("parseGrid(%q) yielded %d cells, want usage error", spec, len(specs))
		}
	}
}

// End to end: a descending range must exit non-zero with the usage
// error on stderr, never print an empty grid.
func TestCLIGridDescendingRange(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	path := writeFixture(t)
	out, err := runCLI(t, "-graph", path, "-grid", "k=4..2,delta=1..3")
	if err == nil {
		t.Fatalf("descending range accepted:\n%s", out)
	}
	if !strings.Contains(out, "descending range") {
		t.Fatalf("missing usage error:\n%s", out)
	}
}

// The -apply flow answers, mutates, re-answers: deleting a K6 edge
// drops the optimum from 6 to 5, and the session must say what it
// retained.
func TestCLIApply(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	path := writeFixture(t)
	out, err := runCLI(t, "-graph", path, "-k", "2", "-delta", "1", "-apply", "-e:0:1")
	if err != nil {
		t.Fatalf("mfc -apply failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "before delta:") || !strings.Contains(out, "after delta") {
		t.Fatalf("missing before/after sections:\n%s", out)
	}
	if !strings.Contains(out, "size  6") || !strings.Contains(out, "size  5") {
		t.Fatalf("expected optimum 6 -> 5:\n%s", out)
	}
	if !strings.Contains(out, "retained:") || !strings.Contains(out, "dynamic: 1 applies") {
		t.Fatalf("missing invalidation accounting:\n%s", out)
	}
	// Malformed delta specs are usage errors.
	if _, err := runCLI(t, "-graph", path, "-apply", "+e:1"); err == nil {
		t.Fatal("malformed delta spec should fail")
	}
}

// The REPL interleaves queries and deltas on one session.
func TestCLIREPL(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	path := writeFixture(t)
	cmd := exec.Command("go", "run", ".", "-graph", path, "-repl")
	cmd.Stdin = strings.NewReader("find 2 1\napply -e:0:1\nfind 2 1\nstats\nquit\n")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("mfc -repl failed: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "size  6") || !strings.Contains(s, "size  5") {
		t.Fatalf("REPL answers wrong:\n%s", s)
	}
	if !strings.Contains(s, "epoch 1:") || !strings.Contains(s, "dynamic: 1 applies") {
		t.Fatalf("REPL apply/stats output missing:\n%s", s)
	}
}
