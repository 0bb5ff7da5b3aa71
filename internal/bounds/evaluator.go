package bounds

import "fairclique/internal/graph"

// Evaluator computes the configured upper bound of a search instance
// (R, C) directly on a view of the parent graph, without materializing
// an induced subgraph. All working storage lives in reusable scratch
// buffers, so steady-state evaluation performs no heap allocations
// (buffers grow to the largest instance seen and are then reused).
//
// An Evaluator is not safe for concurrent use; give each search worker
// its own.
type Evaluator struct {
	sc    graph.CSRScratch
	attrs []graph.Attr
	deg   []int32

	// Greedy coloring scratch.
	order  []int32
	starts []int32
	colors []int32
	used   []int32

	// Attribute-color set scratch (ubac / ubeac).
	colorHasA, colorHasB []bool

	// Counting scratch for the h-index bounds.
	hcounts []int32

	// Colorful degrees (stamped per-vertex color dedup).
	stampA, stampB []int32
	da, db         []int32

	// Colorful (attr, color) neighbour counters for the colorful
	// degeneracy peel (buildColorCounter): ccnt holds one counter per
	// (vertex, key) pair present in the view, and edgeSlot[p] is the
	// counter view-CSR position p incremented. keyStart is the counting
	// sort by key; lastKey/lastSlot are each vertex's newest counter.
	ccnt              []int32
	edgeSlot          []int32
	keyStart          []int32
	lastKey, lastSlot []int32

	// Lazy-bucket min-peel scratch.
	key     []int32
	removed []bool
	buckets [][]int32

	// Colorful path DP scratch.
	rank []int32
	f    []int32

	// Candidate-row decode scratch (EvaluateRow).
	cbuf []int32
}

// EvaluateRow is Evaluate with the candidate set C given as a chunked
// candidate row instead of a slice: the row is decoded into internal
// scratch (live chunks only), so the branch engine's bitset path needs
// no decode buffer of its own and steady-state evaluation stays
// allocation-free.
func (e *Evaluator) EvaluateRow(g *graph.Graph, r []int32, c graph.LiveRow, delta int32, extra Extra) int32 {
	e.cbuf = c.Append(e.cbuf[:0])
	return e.Evaluate(g, r, e.cbuf, delta, extra)
}

// Evaluate computes the same value as the package-level Evaluate on the
// subgraph induced by r followed by c: the minimum of the advanced
// group ubAD and the selected extra bound. r and c must be disjoint
// vertex sets of g.
func (e *Evaluator) Evaluate(g *graph.Graph, r, c []int32, delta int32, extra Extra) int32 {
	e.sc.InduceView(g, r, c)
	n := e.sc.N()
	if n == 0 {
		return 0
	}
	e.grow(n)
	var na, nb int32
	for i := int32(0); i < n; i++ {
		e.attrs[i] = g.Attr(e.sc.Verts[i])
		e.deg[i] = e.sc.Deg(i)
		if e.attrs[i] == graph.AttrA {
			na++
		} else {
			nb++
		}
	}
	numColors := e.greedyColor(n)

	// ubAD from the attribute-colour sets.
	for col := int32(0); col < numColors; col++ {
		e.colorHasA[col] = false
		e.colorHasB[col] = false
	}
	for i := int32(0); i < n; i++ {
		if e.attrs[i] == graph.AttrA {
			e.colorHasA[e.colors[i]] = true
		} else {
			e.colorHasB[e.colors[i]] = true
		}
	}
	var ca, cb, cm int32
	for col := int32(0); col < numColors; col++ {
		switch {
		case e.colorHasA[col] && e.colorHasB[col]:
			cm++
		case e.colorHasA[col]:
			ca++
		case e.colorHasB[col]:
			cb++
		}
	}
	ub := AD(na, nb, ca, cb, cm, delta)

	switch extra {
	case Degeneracy:
		if v := e.viewDegeneracy(n) + 1; v < ub {
			ub = v
		}
	case HIndex:
		if v := e.hIndexOf(e.deg[:n], n) + 1; v < ub {
			ub = v
		}
	case ColorfulDegeneracy:
		if v := 2*(e.viewColorfulDegeneracy(n, numColors)+1) + delta; v < ub {
			ub = v
		}
	case ColorfulHIndex:
		e.colorfulDegrees(n, numColors)
		for i := int32(0); i < n; i++ {
			if e.db[i] < e.da[i] {
				e.da[i] = e.db[i]
			}
		}
		if v := 2*(e.hIndexOf(e.da[:n], n)+1) + delta; v < ub {
			ub = v
		}
	case ColorfulPath:
		if v := e.viewColorfulPath(n, numColors); v < ub {
			ub = v
		}
	}
	return ub
}

// grow sizes every n-indexed scratch buffer for a view of n vertices.
func (e *Evaluator) grow(n int32) {
	if int32(cap(e.attrs)) < n {
		e.attrs = make([]graph.Attr, n)
		e.deg = make([]int32, n)
		e.order = make([]int32, n)
		e.starts = make([]int32, n+2)
		e.colors = make([]int32, n)
		e.used = make([]int32, n+1)
		e.colorHasA = make([]bool, n)
		e.colorHasB = make([]bool, n)
		e.hcounts = make([]int32, n+1)
		e.stampA = make([]int32, 2*n)
		e.stampB = make([]int32, 2*n)
		e.da = make([]int32, n)
		e.db = make([]int32, n)
		e.keyStart = make([]int32, 2*n+1)
		e.lastKey = make([]int32, n)
		e.lastSlot = make([]int32, n)
		e.key = make([]int32, n)
		e.removed = make([]bool, n)
		e.rank = make([]int32, n)
		e.f = make([]int32, n)
	}
}

// greedyColor is an exact port of color.Greedy onto the view CSR:
// vertices in non-increasing degree order (ties by ascending id), each
// taking the smallest color absent from its colored neighbours. It
// fills e.colors[:n] and returns the number of colors.
func (e *Evaluator) greedyColor(n int32) int32 {
	// Counting sort into non-increasing degree order.
	maxDeg := int32(0)
	for i := int32(0); i < n; i++ {
		if e.deg[i] > maxDeg {
			maxDeg = e.deg[i]
		}
	}
	starts := e.starts[:maxDeg+2]
	for i := range starts {
		starts[i] = 0
	}
	for i := int32(0); i < n; i++ {
		starts[e.deg[i]]++
	}
	var acc int32
	for d := maxDeg; d >= 0; d-- {
		cnt := starts[d]
		starts[d] = acc
		acc += cnt
	}
	for i := int32(0); i < n; i++ {
		d := e.deg[i]
		e.order[starts[d]] = i
		starts[d]++
	}

	for i := int32(0); i < n; i++ {
		e.colors[i] = -1
	}
	used := e.used[:n+1]
	for i := range used {
		used[i] = -1
	}
	var numColors int32
	for _, v := range e.order[:n] {
		for _, w := range e.sc.Row(v) {
			if cw := e.colors[w]; cw >= 0 {
				used[cw] = v
			}
		}
		c := int32(0)
		for used[c] == v {
			c++
		}
		e.colors[v] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}
	return numColors
}

// hIndexOf is kcore.HIndexOf on scratch: the largest h such that at
// least h of the first n entries of seq are >= h.
func (e *Evaluator) hIndexOf(seq []int32, n int32) int32 {
	counts := e.hcounts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for _, d := range seq {
		if d > n {
			d = n
		}
		if d < 0 {
			d = 0
		}
		counts[d]++
	}
	var cum int32
	for h := n; h >= 1; h-- {
		cum += counts[h]
		if cum >= h {
			return h
		}
	}
	return 0
}

// resetBuckets prepares maxKey+1 reusable bucket slices.
func (e *Evaluator) resetBuckets(maxKey int32) {
	for int32(len(e.buckets)) <= maxKey {
		e.buckets = append(e.buckets, nil)
	}
	for i := int32(0); i <= maxKey; i++ {
		e.buckets[i] = e.buckets[i][:0]
	}
}

// viewDegeneracy peels the view by minimum degree with a lazy bucket
// queue and returns the degeneracy (the running maximum of the key at
// removal), matching kcore.Decompose.
func (e *Evaluator) viewDegeneracy(n int32) int32 {
	maxKey := int32(0)
	for i := int32(0); i < n; i++ {
		e.key[i] = e.deg[i]
		e.removed[i] = false
		if e.key[i] > maxKey {
			maxKey = e.key[i]
		}
	}
	e.resetBuckets(maxKey)
	for i := int32(0); i < n; i++ {
		e.buckets[e.key[i]] = append(e.buckets[e.key[i]], i)
	}
	var level int32
	ptr := int32(0)
	for popped := int32(0); popped < n; {
		for ptr <= maxKey && len(e.buckets[ptr]) == 0 {
			ptr++
		}
		b := e.buckets[ptr]
		v := b[len(b)-1]
		e.buckets[ptr] = b[:len(b)-1]
		if e.removed[v] || e.key[v] != ptr {
			continue // stale entry
		}
		e.removed[v] = true
		popped++
		if ptr > level {
			level = ptr
		}
		for _, w := range e.sc.Row(v) {
			if e.removed[w] {
				continue
			}
			nk := e.key[w] - 1
			e.key[w] = nk
			e.buckets[nk] = append(e.buckets[nk], w)
			if nk < ptr {
				ptr = nk
			}
		}
	}
	return level
}

// colorfulDegrees fills e.da/e.db with the colorful degrees of every
// view vertex (distinct neighbour colors per attribute), the view-CSR
// port of colorful.ComputeDegrees.
func (e *Evaluator) colorfulDegrees(n, numColors int32) {
	stampA := e.stampA[:numColors]
	stampB := e.stampB[:numColors]
	for i := range stampA {
		stampA[i] = 0
		stampB[i] = 0
	}
	for u := int32(0); u < n; u++ {
		e.da[u] = 0
		e.db[u] = 0
		for _, w := range e.sc.Row(u) {
			cw := e.colors[w]
			if e.attrs[w] == graph.AttrA {
				if stampA[cw] != u+1 {
					stampA[cw] = u + 1
					e.da[u]++
				}
			} else {
				if stampB[cw] != u+1 {
					stampB[cw] = u + 1
					e.db[u]++
				}
			}
		}
	}
}

// buildColorCounter builds the per-vertex (attr, color) multiplicity
// counters used by the colorful degeneracy peel, and fills e.da/e.db.
// Keys are attr*numColors+color. View vertices are visited grouped by
// key in ascending key order (a counting sort into e.order, whose
// coloring order is dead by now), so each vertex's counter for a key
// is created exactly once — on its first neighbour with that key — and
// needs no sorting or lookup. Counters live in e.ccnt; e.edgeSlot[p]
// records the counter that view-CSR position p (an edge from the row's
// owner v to w) incremented: w's counter for v's key, which is the one
// the peel decrements when v is removed.
func (e *Evaluator) buildColorCounter(n, numColors int32) {
	keys := 2 * numColors
	starts := e.keyStart[:keys+1]
	for i := range starts {
		starts[i] = 0
	}
	for v := int32(0); v < n; v++ {
		starts[int32(e.attrs[v])*numColors+e.colors[v]+1]++
	}
	for k := int32(0); k < keys; k++ {
		starts[k+1] += starts[k]
	}
	for v := int32(0); v < n; v++ {
		k := int32(e.attrs[v])*numColors + e.colors[v]
		e.order[starts[k]] = v
		starts[k]++
	}

	da, db := e.da[:n], e.db[:n]
	lastKey, lastSlot := e.lastKey[:n], e.lastSlot[:n]
	for u := range lastKey {
		da[u], db[u], lastKey[u] = 0, 0, -1
	}
	// At most one counter per view-CSR position.
	nbrs := e.sc.Nbrs
	if cap(e.edgeSlot) < len(nbrs) {
		e.edgeSlot = make([]int32, len(nbrs))
		e.ccnt = make([]int32, len(nbrs))
	}
	edgeSlot, ccnt := e.edgeSlot[:len(nbrs)], e.ccnt[:len(nbrs)]
	next := int32(0)
	for _, v := range e.order[:n] {
		kv := int32(e.attrs[v])*numColors + e.colors[v]
		for p := e.sc.Offsets[v]; p < e.sc.Offsets[v+1]; p++ {
			w := nbrs[p]
			if lastKey[w] != kv {
				lastKey[w], lastSlot[w] = kv, next
				ccnt[next] = 0
				next++
				if kv < numColors {
					da[w]++
				} else {
					db[w]++
				}
			}
			slot := lastSlot[w]
			ccnt[slot]++
			edgeSlot[p] = slot
		}
	}
}

// viewColorfulDegeneracy is the view-CSR port of colorful.Decompose
// restricted to its Degeneracy output: generalized min-peeling on
// Dmin = min(Da, Db) with a lazy bucket queue.
func (e *Evaluator) viewColorfulDegeneracy(n, numColors int32) int32 {
	e.buildColorCounter(n, numColors)
	nbrs, edgeSlot, ccnt := e.sc.Nbrs, e.edgeSlot, e.ccnt
	maxKey := int32(0)
	for i := int32(0); i < n; i++ {
		k := e.da[i]
		if e.db[i] < k {
			k = e.db[i]
		}
		e.key[i] = k
		e.removed[i] = false
		if k > maxKey {
			maxKey = k
		}
	}
	e.resetBuckets(maxKey)
	for i := int32(0); i < n; i++ {
		e.buckets[e.key[i]] = append(e.buckets[e.key[i]], i)
	}
	var level int32
	ptr := int32(0)
	for popped := int32(0); popped < n; {
		for ptr <= maxKey && len(e.buckets[ptr]) == 0 {
			ptr++
		}
		b := e.buckets[ptr]
		v := b[len(b)-1]
		e.buckets[ptr] = b[:len(b)-1]
		if e.removed[v] || e.key[v] != ptr {
			continue // stale entry
		}
		e.removed[v] = true
		popped++
		if ptr > level {
			level = ptr
		}
		kv := int32(e.attrs[v])*numColors + e.colors[v]
		for p := e.sc.Offsets[v]; p < e.sc.Offsets[v+1]; p++ {
			w := nbrs[p]
			if e.removed[w] {
				continue
			}
			slot := edgeSlot[p]
			ccnt[slot]--
			if ccnt[slot] == 0 { // v's key left w's alive neighbourhood
				if kv < numColors {
					e.da[w]--
				} else {
					e.db[w]--
				}
				nk := e.da[w]
				if e.db[w] < nk {
					nk = e.db[w]
				}
				if nk < e.key[w] {
					e.key[w] = nk
					e.buckets[nk] = append(e.buckets[nk], w)
					if nk < ptr {
						ptr = nk
					}
				}
			}
		}
	}
	return level
}

// viewColorfulPath is the view-CSR port of ColorfulPathBound: longest
// path in the DAG oriented by the total order (color, id).
func (e *Evaluator) viewColorfulPath(n, numColors int32) int32 {
	// Counting sort by color; ascending ids within a color give the
	// same total order as the sort.Slice in ColorfulPathBound.
	starts := e.starts[:numColors+1]
	for i := range starts {
		starts[i] = 0
	}
	for i := int32(0); i < n; i++ {
		starts[e.colors[i]]++
	}
	var acc int32
	for c := int32(0); c < numColors; c++ {
		cnt := starts[c]
		starts[c] = acc
		acc += cnt
	}
	for i := int32(0); i < n; i++ {
		c := e.colors[i]
		e.order[starts[c]] = i
		e.rank[i] = starts[c]
		starts[c]++
	}
	for i := int32(0); i < n; i++ {
		e.f[i] = 1
	}
	maxLen := int32(1)
	for _, u := range e.order[:n] {
		fu := e.f[u]
		if fu > maxLen {
			maxLen = fu
		}
		for _, w := range e.sc.Row(u) {
			if e.rank[w] > e.rank[u] && e.f[w] < fu+1 {
				e.f[w] = fu + 1
			}
		}
	}
	return maxLen
}
