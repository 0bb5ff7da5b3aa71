package colorful

import (
	"testing"

	"fairclique/internal/graph"
)

// mapTally returns a tally forced onto the per-row map path.
func mapTally(rows, colours int32, enhanced bool) *Tally {
	old := FlatBudget
	FlatBudget = 0
	defer func() { FlatBudget = old }()
	return NewTally(rows, colours, enhanced)
}

// FuzzTally drives one Add/Remove sequence through a flat tally and a
// map tally of the same shape, plain or enhanced. After every step both
// must have returned the same value and must hold the same counters,
// and both must agree with a recount: Da, Db and the mixed count
// recomputed from the counters themselves.
//
// The input's first three bytes pick the row count (1–8), the colour
// count (0–130, so a row spans up to three words of 64 colours) and
// plain or enhanced; every following pair of bytes is one step: the
// row, the attribute, Add or Remove, and the colour. A Remove of a
// counter at zero is skipped, as callers never make one.
func FuzzTally(f *testing.F) {
	// Op bytes: row<<4 | remove<<1 | attribute.
	f.Add([]byte{1, 1, 0, 0x00, 0, 0x02, 0})                                                   // plain add and remove
	f.Add([]byte{2, 3, 1, 0x00, 2, 0x01, 2, 0x03, 2, 0x02, 2})                                 // a colour turns mixed, b leaves first
	f.Add([]byte{2, 3, 1, 0x10, 1, 0x11, 1, 0x12, 1, 0x13, 1})                                 // the same on row 1, a leaves first
	f.Add([]byte{8, 130, 0, 0x70, 129, 0x71, 129, 0x70, 129, 0x71, 129, 0x73, 129, 0x72, 129}) // 130 colours, counters at 2
	f.Add([]byte{3, 0, 1, 0x00, 0, 0x01, 0, 0x03, 0, 0x02, 0})                                 // zero colours
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		rows := 1 + int32(in[0]%8)
		colours := int32(in[1] % 131)
		enhanced := in[2]&1 == 1
		flat, maps := NewTally(rows, colours, enhanced), mapTally(rows, colours, enhanced)
		if flat.flat == nil || maps.maps == nil {
			t.Fatal("tallies not on the flat and map paths")
		}
		nc := max(colours, 1)
		for i := 3; i+1 < len(in); i += 2 {
			row := int32(in[i]>>4) % rows
			a := graph.Attr(in[i] & 1)
			add := in[i]&2 == 0
			c := int32(in[i+1]) % nc
			if !add && flat.count(row, a, c) == 0 {
				continue
			}
			var fr, mr bool
			if add {
				fr, mr = flat.Add(row, a, c), maps.Add(row, a, c)
			} else {
				fr, mr = flat.Remove(row, a, c), maps.Remove(row, a, c)
			}
			if fr != mr {
				t.Fatalf("step %d (row %d attr %d colour %d add %v): flat returned %v, map %v", i, row, a, c, add, fr, mr)
			}
			// An Add reports the counter reaching 1, a Remove reaching 0.
			edge := int32(0)
			if add {
				edge = 1
			}
			if fr != (flat.count(row, a, c) == edge) {
				t.Fatalf("step %d: returned %v with the counter at %d", i, fr, flat.count(row, a, c))
			}
			for r := int32(0); r < rows; r++ {
				var da, db, dm int32
				for c := int32(0); c < nc; c++ {
					ca, cb := flat.count(r, graph.AttrA, c), flat.count(r, graph.AttrB, c)
					if ca != maps.count(r, graph.AttrA, c) || cb != maps.count(r, graph.AttrB, c) {
						t.Fatalf("step %d: row %d colour %d: flat counts (%d, %d), map (%d, %d)",
							i, r, c, ca, cb, maps.count(r, graph.AttrA, c), maps.count(r, graph.AttrB, c))
					}
					if ca > 0 {
						da++
					}
					if cb > 0 {
						db++
					}
					if ca > 0 && cb > 0 {
						dm++
					}
				}
				if !enhanced {
					dm = 0
				}
				want := [3]int32{da - dm, db - dm, dm}
				for _, tl := range []*Tally{flat, maps} {
					ca, cb, cm := tl.Classes(r)
					if got := [3]int32{ca, cb, cm}; got != want {
						t.Fatalf("step %d: row %d classes %v, recount %v (map path %v)", i, r, got, want, tl.maps != nil)
					}
					if got := tl.degree(r); got != EDValue(want[0], want[1], want[2]) {
						t.Fatalf("step %d: row %d degree %d, want %d", i, r, got, EDValue(want[0], want[1], want[2]))
					}
				}
			}
		}
	})
}
