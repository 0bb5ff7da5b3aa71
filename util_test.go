package fairclique

import (
	"os"

	"fairclique/internal/enum"
)

// writeFile is a tiny test helper kept out of the main test file.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// findMode answers (k, mode) with the one-shot Find under the
// recommended configuration: the weak and strong models through Mode.
func findMode(g *Graph, k int, mode Mode) (*Result, error) {
	opt := DefaultOptions(k, 0)
	opt.Mode = mode
	return Find(g, opt)
}

// exhaustive is the Bron–Kerbosch baseline (internal/enum) on g: a
// maximum (k, delta)-fair clique found independently of the
// branch-and-bound, nil when none exists.
func exhaustive(g *Graph, k, delta int) []int {
	return toInt(enum.MaxFairClique(g.freeze(), k, delta))
}
