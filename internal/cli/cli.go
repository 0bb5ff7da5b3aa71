// Package cli holds the flag-value parsers shared by the repo's
// command-line tools (cmd/mfc, cmd/benchmark): inclusive integer
// ranges and (k, δ, mode) grid specs. Keeping them in one place means
// both CLIs reject malformed input with the same usage errors —
// descending or empty ranges are errors, never a silently empty grid.
package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseRange parses "N" or "LO..HI" into an inclusive [lo, hi].
// Descending ranges ("4..2") and empty bounds ("..3", "2..") are
// usage errors, so a grid built from the range can never be silently
// empty.
func ParseRange(s string) (lo, hi int, err error) {
	if a, b, ok := strings.Cut(s, ".."); ok {
		if a == "" || b == "" {
			return 0, 0, fmt.Errorf("empty bound in range %q: write LO..HI", s)
		}
		lo, err = strconv.Atoi(a)
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q: %q is not an integer", s, a)
		}
		hi, err = strconv.Atoi(b)
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q: %q is not an integer", s, b)
		}
		if hi < lo {
			return 0, 0, fmt.Errorf("descending range %q: write LO..HI with LO <= HI", s)
		}
		return lo, hi, nil
	}
	lo, err = strconv.Atoi(s)
	if err != nil {
		return 0, 0, fmt.Errorf("bad range %q: want N or LO..HI", s)
	}
	return lo, lo, nil
}

// Mode mirrors the public fairness taxonomy without importing the
// root package (the CLIs convert): relative takes the explicit δ,
// weak drops the balance constraint, strong demands equality.
type Mode int

// Grid modes.
const (
	ModeRelative Mode = iota
	ModeWeak
	ModeStrong
)

// GridCell is one parsed query cell; Delta is meaningful only for
// ModeRelative.
type GridCell struct {
	K, Delta int
	Mode     Mode
}

// ParseGrid expands a grid spec like "k=2..4,delta=1..3" (optionally
// "mode=weak|strong|relative") into the cross product of query cells.
// Weak and strong modes fix δ themselves, so the delta range is
// ignored and each k yields one cell.
func ParseGrid(spec string) ([]GridCell, error) {
	kLo, kHi := 2, 2
	dLo, dHi := 1, 1
	mode := ModeRelative
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("grid: expected key=value, got %q", part)
		}
		var err error
		switch key {
		case "k":
			kLo, kHi, err = ParseRange(val)
		case "delta":
			dLo, dHi, err = ParseRange(val)
		case "mode":
			switch val {
			case "relative":
				mode = ModeRelative
			case "weak":
				mode = ModeWeak
			case "strong":
				mode = ModeStrong
			default:
				err = fmt.Errorf("grid: unknown mode %q (want relative, weak or strong)", val)
			}
		default:
			err = fmt.Errorf("grid: unknown key %q (want k, delta or mode)", key)
		}
		if err != nil {
			return nil, err
		}
	}
	var specs []GridCell
	for k := kLo; k <= kHi; k++ {
		if mode != ModeRelative {
			specs = append(specs, GridCell{K: k, Mode: mode})
			continue
		}
		for d := dLo; d <= dHi; d++ {
			specs = append(specs, GridCell{K: k, Delta: d})
		}
	}
	if len(specs) == 0 {
		// Unreachable with validated ranges; kept so a parser change can
		// never reintroduce a silently empty grid.
		return nil, fmt.Errorf("grid %q expands to no cells", spec)
	}
	return specs, nil
}
