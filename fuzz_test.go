package fairclique

import (
	"bytes"
	"strings"
	"testing"

	"fairclique/internal/rng"
)

// FuzzFind decodes arbitrary bytes into a small attributed graph plus
// (k, δ) parameters and cross-checks the branch-and-bound against the
// Bron–Kerbosch enumeration. Run with `go test -fuzz=FuzzFind`; the
// seed corpus alone already covers the interesting degenerate shapes.
func FuzzFind(f *testing.F) {
	f.Add([]byte{0}, uint8(1), uint8(0))
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f}, uint8(2), uint8(1))
	f.Add([]byte("fairclique"), uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xaa}, 24), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, k8, d8 uint8) {
		if len(data) == 0 {
			return
		}
		k := int(k8%4) + 1
		delta := int(d8 % 5)
		// Decode: first byte picks n in [2, 12]; remaining bytes are a
		// bit stream over the upper-triangular adjacency matrix, and a
		// derived PRNG assigns attributes.
		n := int(data[0]%11) + 2
		g := NewGraph(n)
		r := rng.New(uint64(len(data))*1315423911 + uint64(data[0]))
		for v := 0; v < n; v++ {
			g.SetAttr(v, Attr(r.Intn(2)))
		}
		bit := 0
		byteAt := func(i int) byte {
			if len(data) <= 1 {
				return 0
			}
			return data[1+i%(len(data)-1)]
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if byteAt(bit/8)>>(uint(bit)%8)&1 == 1 {
					g.AddEdge(u, v)
				}
				bit++
			}
		}
		want := exhaustive(g, k, delta)
		res, err := Find(g, DefaultOptions(k, delta))
		if err != nil {
			t.Fatal(err)
		}
		if res.Size() != len(want) {
			t.Fatalf("n=%d k=%d δ=%d: Find=%d Enumerate=%d", n, k, delta, res.Size(), len(want))
		}
		if res.Size() > 0 && !g.IsFairClique(res.Clique, k, delta) {
			t.Fatalf("Find returned a non-fair-clique %v", res.Clique)
		}
	})
}

// FuzzReadGraph feeds arbitrary text to the parser: it must either
// error cleanly or produce a graph that round-trips.
func FuzzReadGraph(f *testing.F) {
	f.Add("v 0 a\nv 1 b\ne 0 1\n")
	f.Add("# comment\n0 1\n1 2\n")
	f.Add("e 0 0\n")
	f.Add("v 5 b\n")
	f.Add("")
	f.Add("garbage here\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			return
		}
		g, err := ReadGraph(strings.NewReader(input))
		if err != nil {
			return // clean rejection is fine
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		h, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("reparse of own output: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip changed size: %d/%d -> %d/%d", g.N(), g.M(), h.N(), h.M())
		}
	})
}
