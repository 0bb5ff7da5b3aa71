package graph

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
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
