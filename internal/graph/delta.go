package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// This file implements the mutation layer of the dynamic-session stack:
// a Delta is a batched set of vertex/edge insertions and deletions, and
// ApplyDelta materializes the mutated graph as a fresh immutable Graph
// without re-sorting the whole edge list — the surviving edges of the
// old graph are already canonical, so the new edge list is a single
// merge pass and the CSR fill is linear. The returned ApplyInfo names
// exactly what changed (deduplicated against the old graph), which is
// what the session layer's component-scoped invalidation keys off.

// Delta is a batched graph mutation. Operations are applied as a set,
// not a sequence: the result graph is (G minus DelEdges minus all edges
// incident to DelVertices) plus AddVertices plus AddEdges. Ambiguous
// combinations — the same edge both added and deleted, or an added edge
// incident to a deleted vertex — are rejected by ApplyDelta.
type Delta struct {
	// AddVertices appends new vertices with the given attributes; they
	// receive ids N(), N()+1, ... in order and may be referenced by
	// AddEdges within the same delta.
	AddVertices []Attr
	// AddEdges inserts undirected edges (either endpoint order). Edges
	// already present are silently ignored (and not reported as
	// inserted). Self-loops are rejected.
	AddEdges [][2]int32
	// DelEdges removes undirected edges. Edges not present are silently
	// ignored (and not reported as deleted).
	DelEdges [][2]int32
	// DelVertices removes all edges incident to the listed vertices.
	// Vertex ids are never recycled or compacted: a deleted vertex stays
	// a valid (isolated) id with its attribute, which keeps every
	// existing vertex id stable across deltas. An isolated vertex cannot
	// participate in any fair clique (a fair clique has >= 2 vertices),
	// so isolation is answer-preserving deletion.
	DelVertices []int32
}

// Empty reports whether the delta contains no operations at all.
func (d *Delta) Empty() bool {
	return len(d.AddVertices) == 0 && len(d.AddEdges) == 0 &&
		len(d.DelEdges) == 0 && len(d.DelVertices) == 0
}

// ApplyInfo reports what a delta actually changed, deduplicated against
// the pre-delta graph: an AddEdges entry that already existed appears
// nowhere, a DelEdges entry that never existed appears nowhere.
type ApplyInfo struct {
	// Inserted are the canonical (u < v) edges that are new in the
	// result graph, sorted.
	Inserted [][2]int32
	// Deleted are the canonical edges of the old graph that the result
	// graph no longer contains, sorted.
	Deleted [][2]int32
	// NewVertexFirst/NewVertexCount describe the appended id range.
	NewVertexFirst, NewVertexCount int32
	// Endpoints are the sorted unique vertex ids the delta touches:
	// endpoints of Inserted and Deleted edges, explicitly deleted
	// vertices, and the appended vertices.
	Endpoints []int32
}

// Touches reports whether v is one of the delta's endpoint vertices.
func (i *ApplyInfo) Touches(v int32) bool {
	j := sort.Search(len(i.Endpoints), func(j int) bool { return i.Endpoints[j] >= v })
	return j < len(i.Endpoints) && i.Endpoints[j] == v
}

// ApplyDelta materializes d over g as a new immutable Graph, leaving g
// untouched. The merge is O(n + m + |d| log |d|): surviving old edges
// are consumed in canonical order, so no global edge re-sort happens.
func ApplyDelta(g *Graph, d *Delta) (*Graph, *ApplyInfo, error) {
	oldN := g.N()
	newN := oldN + int32(len(d.AddVertices))
	info := &ApplyInfo{NewVertexFirst: oldN, NewVertexCount: int32(len(d.AddVertices))}

	// Deleted vertices: validated against the OLD id range (deleting a
	// vertex added by the same delta is a no-op contradiction).
	delVert := make(map[int32]bool, len(d.DelVertices))
	for _, v := range d.DelVertices {
		if v < 0 || v >= oldN {
			return nil, nil, fmt.Errorf("graph: DelVertices id %d out of range [0, %d)", v, oldN)
		}
		delVert[v] = true
	}

	// Edge deletions: explicit ones plus every edge incident to a
	// deleted vertex, keyed by canonical endpoints.
	type edge = [2]int32
	canon := func(u, v int32) (edge, error) {
		if u == v {
			return edge{}, fmt.Errorf("graph: delta edge (%d,%d) is a self-loop", u, v)
		}
		if u < 0 || v < 0 || u >= newN || v >= newN {
			return edge{}, fmt.Errorf("graph: delta edge (%d,%d) out of range [0, %d)", u, v, newN)
		}
		if u > v {
			u, v = v, u
		}
		return edge{u, v}, nil
	}
	delE := make(map[edge]bool, len(d.DelEdges)+len(d.DelVertices))
	for _, e := range d.DelEdges {
		ce, err := canon(e[0], e[1])
		if err != nil {
			return nil, nil, err
		}
		if ce[0] >= oldN || ce[1] >= oldN {
			return nil, nil, fmt.Errorf("graph: DelEdges (%d,%d) references a vertex added by the same delta", e[0], e[1])
		}
		delE[ce] = true
	}
	for v := range delVert {
		for _, w := range g.Neighbors(v) {
			ce, _ := canon(v, w)
			delE[ce] = true
		}
	}

	// Edge insertions: canonicalize, reject contradictions, drop
	// duplicates and already-present edges.
	var adds []edge
	for _, e := range d.AddEdges {
		ce, err := canon(e[0], e[1])
		if err != nil {
			return nil, nil, err
		}
		if delE[ce] {
			return nil, nil, fmt.Errorf("graph: delta both inserts and deletes edge (%d,%d)", ce[0], ce[1])
		}
		if delVert[ce[0]] || delVert[ce[1]] {
			return nil, nil, fmt.Errorf("graph: delta inserts edge (%d,%d) incident to a deleted vertex", ce[0], ce[1])
		}
		if ce[0] < oldN && ce[1] < oldN && g.HasEdge(ce[0], ce[1]) {
			continue // already present: a no-op, not an insertion
		}
		adds = append(adds, ce)
	}
	slices.SortFunc(adds, compareEdges)
	info.Inserted = slices.Compact(adds)

	// Merge: old edges are already sorted canonically; walk them once,
	// dropping deletions and splicing the sorted insertions in place.
	// delE may name edges that never existed (documented no-ops), so it
	// only hints the capacity and must not drive it below zero.
	capHint := int(g.M()) + len(info.Inserted) - len(delE)
	if capHint < 0 {
		capHint = 0
	}
	edges := make([]edge, 0, capHint)
	ai := 0
	for _, e := range g.edges {
		if len(delE) > 0 && delE[e] {
			info.Deleted = append(info.Deleted, e)
			continue
		}
		for ai < len(info.Inserted) && compareEdges(info.Inserted[ai], e) < 0 {
			edges = append(edges, info.Inserted[ai])
			ai++
		}
		edges = append(edges, e)
	}
	edges = append(edges, info.Inserted[ai:]...)

	attrs := make([]Attr, newN)
	copy(attrs, g.attrs)
	copy(attrs[oldN:], d.AddVertices)

	// Touched endpoints: inserted + deleted edge endpoints, explicitly
	// deleted vertices, appended vertices.
	seen := make(map[int32]bool)
	for _, e := range info.Inserted {
		seen[e[0]], seen[e[1]] = true, true
	}
	for _, e := range info.Deleted {
		seen[e[0]], seen[e[1]] = true, true
	}
	for v := range delVert {
		seen[v] = true
	}
	for v := oldN; v < newN; v++ {
		seen[v] = true
	}
	info.Endpoints = make([]int32, 0, len(seen))
	for v := range seen {
		info.Endpoints = append(info.Endpoints, v)
	}
	slices.Sort(info.Endpoints)

	return fromSortedEdges(attrs, edges), info, nil
}

// compareEdges orders canonical edges lexicographically.
func compareEdges(a, b [2]int32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}
