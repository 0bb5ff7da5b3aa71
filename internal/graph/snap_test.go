package graph

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// refReadSNAP is FuzzReadSNAP's reference loader for the SNAP edge-list
// contract: lines split on '\n', fields on spaces, tabs and '\r',
// strconv.ParseInt per field, a map remap in first-seen order and
// Builder. It returns the 1-based line of the first bad record, or 0
// and the graph with its external ids.
func refReadSNAP(in string) (g *Graph, ext []int64, selfLoops int64, badLine int) {
	ids := map[int64]int32{}
	intern := func(x int64) int32 {
		id, ok := ids[x]
		if !ok {
			id = int32(len(ext))
			ids[x] = id
			ext = append(ext, x)
		}
		return id
	}
	var edges [][2]int32
	for i, line := range strings.Split(in, "\n") {
		fields := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' || r == '\r' })
		if len(fields) == 0 || fields[0][0] == '#' || fields[0][0] == '%' {
			continue
		}
		if len(fields) != 2 {
			return nil, nil, 0, i + 1
		}
		var uv [2]int32
		for j, f := range fields {
			if strings.Trim(f, "0123456789") != "" { // ParseInt would take a sign
				return nil, nil, 0, i + 1
			}
			x, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, nil, 0, i + 1
			}
			uv[j] = intern(x)
		}
		if uv[0] == uv[1] {
			selfLoops++
			continue
		}
		edges = append(edges, uv)
	}
	b := NewBuilder(len(ext))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build(), ext, selfLoops, 0
}

// FuzzReadSNAP feeds arbitrary text through ReadSNAPEdges into a
// builder forced to spill and merge many runs, and checks it against
// refReadSNAP: both reject the input on the same line, or both accept
// it with identical graphs and ExternalIDs.
func FuzzReadSNAP(f *testing.F) {
	for _, tc := range snapEdgeCases {
		f.Add(tc.in)
	}
	for _, tc := range snapAttrCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		wantG, wantExt, wantLoops, wantLine := refReadSNAP(in)
		sb := NewStreamBuilder(StreamConfig{ChunkEdges: 4, MaxMemEdges: 8, SpillDir: t.TempDir()})
		err := ReadSNAPEdges(strings.NewReader(in), sb)
		if err != nil {
			var line int
			if _, serr := fmt.Sscanf(err.Error(), "line %d:", &line); serr != nil {
				t.Fatalf("error without a line number: %v", err)
			}
			if line != wantLine {
				t.Fatalf("rejected on line %d (%v); reference line %d", line, err, wantLine)
			}
			sb.Build() // removes the spill files
			return
		}
		if wantLine != 0 {
			t.Fatalf("accepted; reference rejects line %d", wantLine)
		}
		g, st, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, wantG, g)
		if !slices.Equal(sb.ExternalIDs(), wantExt) {
			t.Fatalf("ExternalIDs = %v, want %v", sb.ExternalIDs(), wantExt)
		}
		if st.SelfLoops != wantLoops || st.EdgesRead != st.Edges+st.Duplicates {
			t.Fatalf("stats %+v: want %d self-loops and read = edges + duplicates", st, wantLoops)
		}
	})
}

// snapErrLine returns the line number that err starts with, or 0.
func snapErrLine(err error) int {
	var line int
	if err != nil {
		fmt.Sscanf(err.Error(), "line %d:", &line)
	}
	return line
}

// waitGoroutines waits until no more than want goroutines run, and
// fails if that takes longer than a few seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still run, want %d", runtime.NumGoroutine(), want)
		}
	}
}

// TestReadSNAPParserExits drives ReadSNAPEdges's parse goroutine down
// every path that ends it: a parse error blocks in, an AddEdge failure
// with the parser blocks ahead (a built builder fails every AddEdge),
// an AddEdge failure in the block that also holds a later parse error,
// a reader that fails after some bytes and a clean end of input without
// a final newline. Each returns the first bad line in line order, and
// the goroutine count is back at its start.
func TestReadSNAPParserExits(t *testing.T) {
	lines := func(n int) string { return strings.Repeat("1 2\n", n) }
	built := NewStreamBuilder(StreamConfig{SpillDir: t.TempDir()})
	if _, _, err := built.Build(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		in       io.Reader
		sb       *StreamBuilder
		wantLine int // 0: no error
		wantErr  string
	}{
		{"parse error three blocks in", strings.NewReader(lines(3*snapBlockRecords+5) + "oops\n" + lines(10)),
			nil, 3*snapBlockRecords + 6, "expected a non-negative integer"},
		{"AddEdge fails with blocks queued", strings.NewReader(lines((snapBlocks + 2) * snapBlockRecords)),
			built, 1, "already built"},
		{"AddEdge fails before a parse error in its block", strings.NewReader(lines(10) + "oops\n"),
			built, 1, "already built"},
		{"reader fails after some bytes", io.MultiReader(strings.NewReader(lines(2*snapBlockRecords+7)), iotest.ErrReader(errors.New("disk gone"))),
			nil, 2*snapBlockRecords + 8, "disk gone"},
		{"clean EOF without a final newline", strings.NewReader("# c\n1 2\n2 3"), nil, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sb := tc.sb
			if sb == nil {
				sb = NewStreamBuilder(StreamConfig{SpillDir: t.TempDir()})
			}
			start := runtime.NumGoroutine()
			err := ReadSNAPEdges(tc.in, sb)
			if line := snapErrLine(err); line != tc.wantLine || (err != nil) != (tc.wantLine != 0) {
				t.Fatalf("err = %v, want line %d", err, tc.wantLine)
			}
			if err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			waitGoroutines(t, start)
			if err == nil {
				g, _, err := sb.Build()
				if err != nil || g.M() != 2 {
					t.Fatalf("built m=%d, err %v; want the 2 edges", g.M(), err)
				}
			}
		})
	}
}

// TestLoadSNAPRemovesRunsOnError loads bad inputs with a config that
// spills every few dozen edges: the edge table's error rows after 1,000
// good edges, a bad attribute file and a missing edge file after a good
// attribute file. Every load fails, and no spill run is left behind.
func TestLoadSNAPRemovesRunsOnError(t *testing.T) {
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{ChunkEdges: 16, MaxMemEdges: 32, SpillDir: spill}
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var good strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&good, "%d %d\n", i, i+1)
	}
	type load struct{ name, edges, attrs string }
	var loads []load
	for i, tc := range snapEdgeCases {
		if tc.wantErr != "" {
			loads = append(loads, load{tc.name, write(fmt.Sprintf("e%d.snap", i), good.String()+tc.in), ""})
		}
	}
	goodEdges := write("good.snap", good.String())
	for i, tc := range snapAttrCases {
		if tc.name == "bad attr" {
			loads = append(loads, load{tc.name, goodEdges, write(fmt.Sprintf("a%d.attrs", i), tc.in)})
		}
	}
	loads = append(loads, load{"missing edge file", filepath.Join(dir, "missing.snap"), write("good.attrs", "0 a\n1 b\n")})
	if len(loads) < 10 {
		t.Fatalf("only %d bad loads", len(loads))
	}
	for _, l := range loads {
		if _, _, err := LoadSNAP(l.edges, l.attrs, cfg); err == nil {
			t.Fatalf("%s: loaded", l.name)
		}
		if ents, _ := os.ReadDir(spill); len(ents) != 0 {
			t.Fatalf("%s: %d spill runs left behind", l.name, len(ents))
		}
	}
	if _, st, err := LoadSNAP(goodEdges, "", cfg); err != nil || st.RunsSpilled == 0 {
		t.Fatalf("good load: %v, stats %+v; want spilled runs", err, st)
	}
}
