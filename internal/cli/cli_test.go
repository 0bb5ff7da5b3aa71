package cli

import (
	"strings"
	"testing"
)

func TestParseRangeTable(t *testing.T) {
	cases := []struct {
		in      string
		lo, hi  int
		wantErr string
	}{
		{in: "3", lo: 3, hi: 3},
		{in: "2..4", lo: 2, hi: 4},
		{in: "2..2", lo: 2, hi: 2},
		{in: "0..1", lo: 0, hi: 1},
		{in: "-1..2", lo: -1, hi: 2},
		{in: "4..2", wantErr: "descending"},
		{in: "3..1", wantErr: "descending"},
		{in: "..3", wantErr: "empty bound"},
		{in: "2..", wantErr: "empty bound"},
		{in: "..", wantErr: "empty bound"},
		{in: "", wantErr: "bad range"},
		{in: "x", wantErr: "bad range"},
		{in: "2..x", wantErr: "not an integer"},
		{in: "x..2", wantErr: "not an integer"},
		{in: "1..2..3", wantErr: "not an integer"},
	}
	for _, tc := range cases {
		lo, hi, err := ParseRange(tc.in)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("ParseRange(%q) = (%d, %d), want error containing %q", tc.in, lo, hi, tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseRange(%q) error %q, want it to contain %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRange(%q): %v", tc.in, err)
			continue
		}
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("ParseRange(%q) = (%d, %d), want (%d, %d)", tc.in, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestParseGridTable(t *testing.T) {
	cases := []struct {
		in      string
		cells   int
		wantErr bool
	}{
		{in: "k=2..4,delta=1..3", cells: 9},
		{in: "k=2,delta=0", cells: 1},
		{in: "k=1..3,mode=weak", cells: 3},
		{in: "k=1..2,delta=5..9,mode=strong", cells: 2}, // modes ignore the delta range
		{in: "k=4..2,delta=1..3", wantErr: true},        // descending k
		{in: "k=2..4,delta=3..1", wantErr: true},        // descending delta
		{in: "k=..2", wantErr: true},
		{in: "k=2..", wantErr: true},
		{in: "k", wantErr: true},
		{in: "mode=fuzzy", wantErr: true},
		{in: "q=3", wantErr: true},
	}
	for _, tc := range cases {
		specs, err := ParseGrid(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseGrid(%q) yielded %d cells, want usage error", tc.in, len(specs))
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseGrid(%q): %v", tc.in, err)
			continue
		}
		if len(specs) != tc.cells {
			t.Errorf("ParseGrid(%q) = %d cells, want %d", tc.in, len(specs), tc.cells)
		}
	}
}
