package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
)

// This file implements the SNAP-style edge-list contract used for
// paper-scale instances:
//
//   - one edge per line, two whitespace-separated non-negative integer
//     vertex ids ("u v"); tabs and runs of spaces both work
//   - lines starting with '#' or '%' are comments; blank lines are
//     skipped
//   - ids need not be contiguous; they are remapped to dense int32 ids
//     in first-seen order
//   - self-loops are dropped, duplicate and reversed edges are merged
//
// Attributes travel in a companion file with "id attr" lines (attr is
// a/b/0/1), same comment rules. Everything else is a line-numbered
// error — no silent corruption.

// snapScanner wraps line iteration with 1-based line numbers and a
// large token buffer.
func snapScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	return sc
}

// parseSnapInt parses a non-negative integer starting at s[i], returning
// the value and the index one past it.
func parseSnapInt(s []byte, i int) (int64, int, error) {
	start := i
	var v int64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		// v*10 + d overflows iff v > (MaxInt64-d)/10, which needs
		// v >= MaxInt64/10: test that first to skip the division.
		d := int64(s[i] - '0')
		if v >= math.MaxInt64/10 && v > (math.MaxInt64-d)/10 {
			return 0, i, fmt.Errorf("vertex id overflows int64")
		}
		v = v*10 + d
		i++
	}
	if i == start {
		return 0, i, fmt.Errorf("expected a non-negative integer")
	}
	return v, i, nil
}

func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	return i
}

// ReadSNAPEdges streams a SNAP edge list into sb. Errors carry the
// 1-based line number of the offending record.
func ReadSNAPEdges(r io.Reader, sb *StreamBuilder) error {
	sc := snapScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := sc.Bytes()
		i := skipSpace(s, 0)
		if i == len(s) || s[i] == '#' || s[i] == '%' {
			continue
		}
		u, i, err := parseSnapInt(s, i)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		j := skipSpace(s, i)
		if j == i {
			return fmt.Errorf("line %d: expected two fields \"u v\", got one", line)
		}
		v, j, err := parseSnapInt(s, j)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if k := skipSpace(s, j); k != len(s) {
			return fmt.Errorf("line %d: trailing garbage after edge %d %d", line, u, v)
		}
		if err := sb.AddEdge(u, v); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %v", line+1, err)
	}
	return nil
}

// ReadSNAPAttrs streams an "id attr" attribute file into sb. Loading
// attributes before edges pins the dense vertex order to the attribute
// file's order. A repeated id keeps the last attribute seen.
func ReadSNAPAttrs(r io.Reader, sb *StreamBuilder) error {
	sc := snapScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := sc.Bytes()
		i := skipSpace(s, 0)
		if i == len(s) || s[i] == '#' || s[i] == '%' {
			continue
		}
		id, i, err := parseSnapInt(s, i)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		j := skipSpace(s, i)
		if j == i || j == len(s) {
			return fmt.Errorf("line %d: expected \"id attr\"", line)
		}
		k := j
		for k < len(s) && s[k] != ' ' && s[k] != '\t' && s[k] != '\r' {
			k++
		}
		a, err := ParseAttr(string(s[j:k]))
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if x := skipSpace(s, k); x != len(s) {
			return fmt.Errorf("line %d: trailing garbage after attribute", line)
		}
		if err := sb.SetAttr(id, a); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %v", line+1, err)
	}
	return nil
}

// LoadSNAP streams a SNAP edge-list file (and an optional attribute
// file; pass "" for none — all vertices then default to attribute a)
// through a StreamBuilder into a CSR graph. The attribute file is read
// first so its vertex order becomes the dense id order.
func LoadSNAP(edgePath, attrPath string, cfg StreamConfig) (*Graph, *StreamStats, error) {
	sb := NewStreamBuilder(cfg)
	if attrPath != "" {
		f, err := os.Open(attrPath)
		if err != nil {
			return nil, nil, err
		}
		err = ReadSNAPAttrs(bufio.NewReaderSize(f, 1<<16), sb)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", attrPath, err)
		}
	}
	f, err := os.Open(edgePath)
	if err != nil {
		return nil, nil, err
	}
	err = ReadSNAPEdges(bufio.NewReaderSize(f, 1<<16), sb)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", edgePath, err)
	}
	g, st, err := sb.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", edgePath, err)
	}
	return g, st, nil
}

// WriteSNAP writes g's canonical edge list in SNAP format (dense ids,
// one "u\tv" line per edge, a comment header with the sizes).
func WriteSNAP(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "# fairclique SNAP edge list\n# Nodes: %d Edges: %d\n", g.N(), g.M())
	for e := int32(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		fmt.Fprintf(bw, "%d\t%d\n", u, v)
	}
	return bw.Flush()
}

// WriteSNAPAttrs writes g's attributes as "id attr" lines in dense-id
// order, the companion file for WriteSNAP.
func WriteSNAPAttrs(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "# fairclique SNAP attributes\n")
	for v := int32(0); v < g.N(); v++ {
		fmt.Fprintf(bw, "%d\t%s\n", v, g.Attr(v))
	}
	return bw.Flush()
}
