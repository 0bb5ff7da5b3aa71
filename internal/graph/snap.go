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

// snapScanner returns a line scanner with a large token buffer.
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

// snapRecord is one parsed SNAP line: its two fields and its 1-based
// line number.
type snapRecord struct {
	a, b int64
	line int
}

// snapBlock is a run of records in line order. A non-nil err belongs
// to a line after the last record and ends the stream.
type snapBlock struct {
	recs []snapRecord
	err  error
}

// Blocks of snapBlockRecords records, at most snapBlocks of them alive
// at once, carry parsed records from readSNAP's parse goroutine to the
// caller's: enough to keep the parser going while the builder sorts or
// spills a chunk.
const (
	snapBlockRecords = 8192
	snapBlocks       = 16
)

// readSNAP scans r line by line on a goroutine of its own, which skips
// blank and comment lines and parses every other line with parse, and
// calls add with each parsed record on the caller's goroutine in line
// order. It returns the first error in line order: a parse error, an
// error from add or a read error, prefixed with its 1-based line
// number. An error from add stops the parse goroutine, and readSNAP
// returns only after that goroutine has exited; by then r may have been
// read well past the first bad line.
func readSNAP(r io.Reader, parse func(s []byte, i int) (int64, int64, error), add func(a, b int64) error) error {
	// Neither channel ever blocks its sender: no more than snapBlocks
	// blocks exist.
	full := make(chan snapBlock, snapBlocks)
	free := make(chan []snapRecord, snapBlocks)
	stop := make(chan struct{})
	go func() {
		defer close(full)
		allocated := 0
		// nextBlock returns an empty block, recycled or, while fewer
		// than snapBlocks exist, new; nil once stop is closed.
		nextBlock := func() []snapRecord {
			select {
			case <-stop:
				return nil
			case blk := <-free:
				return blk
			default:
			}
			if allocated < snapBlocks {
				allocated++
				return make([]snapRecord, 0, snapBlockRecords)
			}
			select {
			case <-stop:
				return nil
			case blk := <-free:
				return blk
			}
		}
		sc := snapScanner(r)
		blk := nextBlock()
		line := 0
		for sc.Scan() {
			line++
			s := sc.Bytes()
			i := skipSpace(s, 0)
			if i == len(s) || s[i] == '#' || s[i] == '%' {
				continue
			}
			a, b, err := parse(s, i)
			if err != nil {
				full <- snapBlock{blk, fmt.Errorf("line %d: %v", line, err)}
				return
			}
			blk = append(blk, snapRecord{a, b, line})
			if len(blk) == cap(blk) {
				full <- snapBlock{recs: blk}
				if blk = nextBlock(); blk == nil {
					return
				}
			}
		}
		var err error
		if serr := sc.Err(); serr != nil {
			err = fmt.Errorf("line %d: %v", line+1, serr)
		}
		full <- snapBlock{blk, err}
	}()

	// The loop runs until the parse goroutine closes full, so it has
	// exited when readSNAP returns.
	var err error
	for blk := range full {
		if err != nil {
			continue
		}
		for _, rec := range blk.recs {
			if aerr := add(rec.a, rec.b); aerr != nil {
				err = fmt.Errorf("line %d: %v", rec.line, aerr)
				close(stop)
				break
			}
		}
		if err == nil {
			err = blk.err
			free <- blk.recs[:0]
		}
	}
	return err
}

// ReadSNAPEdges streams a SNAP edge list into sb, parsing it on a
// goroutine of its own while the caller's goroutine feeds sb in line
// order. Errors carry the 1-based line number of the first offending
// record; r may have been read past it.
func ReadSNAPEdges(r io.Reader, sb *StreamBuilder) error {
	return readSNAP(r, parseSnapEdge, sb.AddEdge)
}

// parseSnapEdge parses the record "u v" that starts at s[i].
func parseSnapEdge(s []byte, i int) (u, v int64, err error) {
	if u, i, err = parseSnapInt(s, i); err != nil {
		return 0, 0, err
	}
	j := skipSpace(s, i)
	if j == i {
		return 0, 0, fmt.Errorf("expected two fields \"u v\", got one")
	}
	if v, j, err = parseSnapInt(s, j); err != nil {
		return 0, 0, err
	}
	if k := skipSpace(s, j); k != len(s) {
		return 0, 0, fmt.Errorf("trailing garbage after edge %d %d", u, v)
	}
	return u, v, nil
}

// ReadSNAPAttrs streams an "id attr" attribute file into sb, parsing
// it the way ReadSNAPEdges parses an edge list. Loading attributes
// before edges pins the dense vertex order to the attribute file's
// order. A repeated id keeps the last attribute seen.
func ReadSNAPAttrs(r io.Reader, sb *StreamBuilder) error {
	return readSNAP(r, parseSnapAttr, func(id, a int64) error { return sb.SetAttr(id, Attr(a)) })
}

// parseSnapAttr parses the record "id attr" that starts at s[i].
func parseSnapAttr(s []byte, i int) (id, a int64, err error) {
	if id, i, err = parseSnapInt(s, i); err != nil {
		return 0, 0, err
	}
	j := skipSpace(s, i)
	if j == i || j == len(s) {
		return 0, 0, fmt.Errorf("expected \"id attr\"")
	}
	k := j
	for k < len(s) && s[k] != ' ' && s[k] != '\t' && s[k] != '\r' {
		k++
	}
	attr, err := ParseAttr(string(s[j:k]))
	if err != nil {
		return 0, 0, err
	}
	if x := skipSpace(s, k); x != len(s) {
		return 0, 0, fmt.Errorf("trailing garbage after attribute")
	}
	return id, int64(attr), nil
}

// LoadSNAP streams a SNAP edge-list file (and an optional attribute
// file; pass "" for none — all vertices then default to attribute a)
// through a StreamBuilder into a CSR graph. The attribute file is read
// first so its vertex order becomes the dense id order. Spilled runs
// are removed on every return, failed or not.
func LoadSNAP(edgePath, attrPath string, cfg StreamConfig) (*Graph, *StreamStats, error) {
	sb := NewStreamBuilder(cfg)
	defer sb.cleanup()
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
