package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fairclique"
	"fairclique/internal/graph"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

func TestCLIList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatalf("gengraph -list failed: %v\n%s", err, out)
	}
	for _, name := range []string{"themarker-sim", "google-sim", "dblp-sim", "flixster-sim", "pokec-sim", "aminer-sim"} {
		if !strings.Contains(out, name) {
			t.Fatalf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestCLIModels(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	for _, tc := range [][]string{
		{"-model", "er", "-n", "50", "-m", "100"},
		{"-model", "ba", "-n", "60", "-m", "3"},
		{"-model", "ws", "-n", "40", "-m", "2"},
		{"-model", "team", "-n", "80", "-teams", "40"},
		{"-model", "sbm", "-n", "60", "-blocks", "3", "-pin", "0.3", "-pout", "0.01"},
		{"-dataset", "dblp-sim", "-scale", "0.05"},
	} {
		path := filepath.Join(dir, "g.txt")
		args := append(tc, "-out", path)
		out, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("gengraph %v failed: %v\n%s", tc, err, out)
		}
		g, err := fairclique.ReadGraphFile(path)
		if err != nil {
			t.Fatalf("output of %v unreadable: %v", tc, err)
		}
		if g.N() == 0 {
			t.Fatalf("%v produced an empty graph", tc)
		}
		os.Remove(path)
	}
	if _, err := runCLI(t, "-model", "bigcomp", "-n", "1000"); err == nil {
		t.Fatal("bigcomp below the 4096-vertex cap should fail")
	}
	if _, err := runCLI(t, "-model", "nope"); err == nil {
		t.Fatal("unknown model should fail")
	}
	if _, err := runCLI(t, "-dataset", "nope"); err == nil {
		t.Fatal("unknown dataset should fail")
	}
	if _, err := runCLI(t); err == nil {
		t.Fatal("no arguments should fail with usage")
	}
}

// The bigcomp preset must emit a reproducible single-component instance
// of more than 4096 vertices — too large for one flat row table, the
// instance class the per-root rows' tests and benchmarks rely on.
func TestCLIBigComponentPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	args := []string{"-model", "bigcomp", "-n", "4300", "-core", "60", "-seed", "3"}
	p1 := filepath.Join(dir, "a.txt")
	p2 := filepath.Join(dir, "b.txt")
	for _, p := range []string{p1, p2} {
		if out, err := runCLI(t, append(args, "-out", p)...); err != nil {
			t.Fatalf("gengraph bigcomp failed: %v\n%s", err, out)
		}
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("bigcomp output not reproducible across runs")
	}
	g, err := graph.Read(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() <= 4096 {
		t.Fatalf("bigcomp emitted %d vertices; want > 4096", g.N())
	}
	if comps := graph.ConnectedComponents(g); len(comps) != 1 {
		t.Fatalf("bigcomp emitted %d components; want 1", len(comps))
	}
}
