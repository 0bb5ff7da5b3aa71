package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	for _, tc := range []struct {
		exp  string
		want string
	}{
		{"table1", "Table I"},
		{"fig8", "HeurRFC size"},
		{"fig4", "Fig. 4"},
	} {
		out, err := runCLI(t, "-exp", tc.exp, "-scale", "0.05", "-max-nodes", "1000000")
		if err != nil {
			t.Fatalf("benchmark -exp %s failed: %v\n%s", tc.exp, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("-exp %s output missing %q:\n%s", tc.exp, tc.want, out)
		}
	}
	if _, err := runCLI(t, "-exp", "nope"); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestCLIOutFile(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	path := filepath.Join(t.TempDir(), "results.md")
	out, err := runCLI(t, "-exp", "table1", "-scale", "0.05", "-out", path)
	if err != nil {
		t.Fatalf("benchmark -out failed: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Table I") {
		t.Fatalf("output file missing table:\n%s", data)
	}
}

// The benchmark CLI shares the grid-spec parsing with cmd/mfc: a
// descending range must be a usage error, and a custom ascending spec
// must drive the grid experiment.
func TestCLIGridSpecRanges(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	out, err := runCLI(t, "-exp", "grid", "-scale", "0.1", "-grid", "k=4..2,delta=1..3")
	if err == nil {
		t.Fatalf("descending grid range accepted:\n%s", out)
	}
	if !strings.Contains(out, "descending range") {
		t.Fatalf("missing usage error:\n%s", out)
	}
	out, err = runCLI(t, "-exp", "grid", "-scale", "0.1", "-grid", "k=2..3,delta=2..2")
	if err != nil {
		t.Fatalf("benchmark -exp grid -grid failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"grid_spec": "k=2..3,delta=2..2"`) || !strings.Contains(out, `"all_match": true`) {
		t.Fatalf("custom grid spec not honoured:\n%s", out)
	}
}

// -exp delta emits the dynamic-session record with every scenario.
func TestCLIDeltaExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	out, err := runCLI(t, "-exp", "delta", "-scale", "0.1")
	if err != nil {
		t.Fatalf("benchmark -exp delta failed: %v\n%s", err, out)
	}
	for _, want := range []string{`"insert-shell-chord"`, `"delete-shell-edge"`, `"delete-nucleus-edge"`, `"sizes_match": true`} {
		if !strings.Contains(out, want) {
			t.Fatalf("delta record missing %s:\n%s", want, out)
		}
	}
}
