package session

// Session-native enumeration: every maximum fair clique of a cell, kept
// fresh across graph deltas.
//
// Enumerate answers KindEnumerateAll with the branch-and-bound engine's
// collect-at-optimum mode (core.Options.CollectAll) — one search visits
// every optimum-sized fair clique — warm-started by the session's pool
// and floored by the monotonicity table's *exact* cells (an inexact
// upper bound must never floor a collect run: it would silently drop
// true optima). Exact sets register everywhere a scalar answer would —
// monotonicity table, warm-start pool (every clique), live broadcast —
// plus the epoch's enumeration cache; inexact (deadline/MaxNodes) sets
// are quarantined from all of it, exactly like anytime results.
//
// Apply maintains the cached sets incrementally. Deletions only destroy
// cliques and any clique a delta creates contains an inserted edge and
// hence fits inside that edge's closed common neighborhood (the same
// insertion floor that relaxes the monotonicity table). So when the
// floor sits below the old optimum and at least one old optimum
// survives the deletions, the survivors ARE the new set — no search.
// Otherwise the cell is re-enumerated on the new epoch. Either way the
// per-cell died/born diff is surfaced as ApplyStats.EnumDiffs.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fairclique/internal/core"
)

// QueryKind selects a query's result shape; see Query.Kind.
type QueryKind int

const (
	// KindFind asks for one maximum fair clique (Find/FindGrid).
	KindFind QueryKind = iota
	// KindEnumerateAll asks for every maximum fair clique (Enumerate).
	KindEnumerateAll
	// KindTopR asks for a diversified subset of R maximum fair cliques,
	// chosen greedily to cover the most distinct vertices (Enumerate).
	KindTopR
)

// ResultSet is the outcome of an enumeration query. All slices are
// owned by the session (they may be shared with its caches) and must
// not be mutated by the caller.
type ResultSet struct {
	// Cliques holds every maximum fair clique — or, for KindTopR, the
	// diversified R-subset — each ascending-sorted, the set ordered
	// lexicographically. Empty when no fair clique exists.
	Cliques [][]int32
	// Counts[i] is {na, nb}: Cliques[i]'s per-attribute vertex counts.
	Counts [][2]int32
	// Size is the maximum fair clique size (0 when none exists).
	Size int32
	// Exact reports whether Cliques is the complete set. When a
	// Deadline or MaxNodes budget aborted the search it is false and
	// Cliques holds only the incumbent-sized cliques found in budget;
	// such sets never enter the pool, table, or enumeration cache.
	Exact bool
	// UpperBound is the certified bound on the optimum size: Size when
	// Exact, the anytime frontier certificate otherwise.
	UpperBound int32
	// Stats is the underlying search's accounting (zero on cache hits).
	Stats core.Stats
}

// EnumDiff is one cached enumeration cell's epoch diff: what one Apply
// did to its result set.
type EnumDiff struct {
	K, Delta int32
	Weak     bool
	// Size is the cell's new optimum (0 when Dropped or no clique).
	Size int32
	// Died are old-set cliques absent from the new set; Born are new
	// ones the delta created. Both canonical ascending-sorted.
	Died, Born [][]int32
	// Recomputed is set when the cell was re-enumerated from scratch;
	// unset when survivor filtering maintained it without a search.
	Recomputed bool
	// Dropped is set when a re-enumeration failed or came back inexact
	// under the session's budgets: the cell left the cache (a later
	// Enumerate rebuilds it on demand) and Born/Size are meaningless.
	Dropped bool
}

// enumKey identifies a cached enumeration cell. Weak cells key on the
// flag, not a resolved δ, so they stay valid as the graph grows.
type enumKey struct {
	K, Delta int32
	Weak     bool
}

func enumKeyOf(q Query) enumKey {
	if q.Weak {
		return enumKey{K: q.K, Weak: true}
	}
	return enumKey{K: q.K, Delta: q.Delta}
}

// enumSet is one cached exact enumeration answer. Immutable once
// stored — Apply's maintenance and cache hits share its slices.
type enumSet struct {
	cliques [][]int32
	size    int32
}

// Enumerate answers an enumeration query on the current epoch: all
// maximum fair cliques for q's cell (KindEnumerateAll, or KindFind for
// convenience), or the diversified top-R subset (KindTopR). Results
// come from the epoch's enumeration cache when the cell was already
// solved — Apply keeps cached cells current — and from a
// collect-at-optimum search otherwise. Deadline/MaxNodes make the
// answer anytime: Exact=false with a certified UpperBound, quarantined
// from every cache.
func (s *Session) Enumerate(q Query) (*ResultSet, error) {
	if err := validate(q); err != nil {
		return nil, err
	}
	if q.Kind == KindTopR && q.R < 1 {
		return nil, fmt.Errorf("session: KindTopR requires R >= 1, got %d", q.R)
	}
	rs, err := s.enumerateOn(s.cur.Load(), q)
	if err != nil {
		return nil, err
	}
	if q.Kind == KindTopR {
		rs = diversifyTopR(rs, q.R)
	}
	return rs, nil
}

// enumerateOn runs the full-set enumeration for q's cell against one
// pinned epoch (Enumerate passes the current one; Apply passes the
// not-yet-published epoch it is maintaining).
func (s *Session) enumerateOn(e *epoch, q Query) (*ResultSet, error) {
	key := enumKeyOf(q)
	if q.Weak {
		q.Delta = e.g.N() // no balance constraint at this epoch's size
	}

	e.mu.Lock()
	if set, ok := e.enums[key]; ok {
		e.mu.Unlock()
		s.mu.Lock()
		s.stats.EnumCacheHits++
		s.mu.Unlock()
		return s.resultSetOf(e, set.cliques, set.size, true, set.size, core.Stats{}), nil
	}
	ub, haveUB := e.table.UpperBound(q.K, q.Delta)
	exact, haveExact := e.table.Exact(q.K, q.Delta)
	seed := bestSeedLocked(e, q)
	e.mu.Unlock()

	s.mu.Lock()
	s.stats.Queries++
	s.stats.Enumerations++
	s.mu.Unlock()

	if haveUB && ub < 2*q.K {
		// The inherited bound proves the cell empty: the complete set is
		// the empty set, with zero branching.
		set := &enumSet{}
		e.mu.Lock()
		e.table.Add(q.K, q.Delta, 0)
		s.storeEnumLocked(e, key, set)
		e.mu.Unlock()
		s.mu.Lock()
		s.stats.DominanceSkips++
		s.mu.Unlock()
		return s.resultSetOf(e, nil, 0, true, 0, core.Stats{}), nil
	}
	// Note: no seed-meets-bound skip here. One pooled optimum clique
	// answers a Find, but enumeration needs ALL of them.

	shape := core.Options{CollectAll: true}
	if haveExact {
		// The table holds this cell's true optimum (it was solved on
		// this very epoch, no Relax since): a trusted incumbent floor.
		// An inexact upper bound must never flow here — flooring above
		// the optimum would silently drop every true optimum clique.
		shape.StopAtSize = int(exact)
	}
	// Collect searches take no Injector and skip the running-search
	// registry: a broadcast bound from a dominating cell is an upper
	// bound, not this cell's optimum, and must not floor the collector.
	res, err := s.search(e, q, seed, shape)
	if err != nil {
		return nil, err
	}

	size := int32(res.Size())
	if !res.Stats.Aborted {
		set := &enumSet{cliques: res.Cliques, size: size}
		e.mu.Lock()
		e.table.Add(q.K, q.Delta, size)
		for _, c := range res.Cliques {
			addPoolLocked(e, c)
		}
		s.storeEnumLocked(e, key, set)
		e.mu.Unlock()
		s.broadcast(e, q, res)
		return s.resultSetOf(e, set.cliques, size, true, size, res.Stats), nil
	}
	// Aborted: a partial set. Quarantined — no table, no pool, no
	// cache, no broadcast — exactly like an aborted Find.
	return s.resultSetOf(e, res.Cliques, size, false, res.UpperBound, res.Stats), nil
}

// storeEnumLocked records an exact set in the epoch's cache. e.mu held.
func (s *Session) storeEnumLocked(e *epoch, key enumKey, set *enumSet) {
	if e.enums == nil {
		e.enums = make(map[enumKey]*enumSet)
	}
	e.enums[key] = set
}

// resultSetOf assembles the public ResultSet, deriving per-clique
// attribute counts from the epoch's graph.
func (s *Session) resultSetOf(e *epoch, cliques [][]int32, size int32, exact bool, ub int32, st core.Stats) *ResultSet {
	rs := &ResultSet{
		Cliques:    cliques,
		Size:       size,
		Exact:      exact,
		UpperBound: ub,
		Stats:      st,
	}
	if len(cliques) > 0 {
		rs.Counts = make([][2]int32, len(cliques))
		for i, c := range cliques {
			na, nb := e.g.CountAttrs(c)
			rs.Counts[i] = [2]int32{int32(na), int32(nb)}
		}
	}
	return rs
}

// diversifyTopR picks r cliques greedily maximizing distinct-vertex
// coverage: each step takes the clique covering the most not-yet-
// covered vertices, breaking ties toward the lexicographically smaller
// clique (the set is already in lexicographic order, so the earliest
// candidate wins). Deterministic; keeps the ResultSet's exactness
// contract — Exact still means "chosen from the complete set".
func diversifyTopR(rs *ResultSet, r int) *ResultSet {
	if r >= len(rs.Cliques) {
		return rs
	}
	covered := make(map[int32]bool)
	taken := make([]bool, len(rs.Cliques))
	out := &ResultSet{
		Cliques:    make([][]int32, 0, r),
		Counts:     make([][2]int32, 0, r),
		Size:       rs.Size,
		Exact:      rs.Exact,
		UpperBound: rs.UpperBound,
		Stats:      rs.Stats,
	}
	for len(out.Cliques) < r {
		best, bestGain := -1, -1
		for i, c := range rs.Cliques {
			if taken[i] {
				continue
			}
			gain := 0
			for _, v := range c {
				if !covered[v] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		for _, v := range rs.Cliques[best] {
			covered[v] = true
		}
		out.Cliques = append(out.Cliques, rs.Cliques[best])
		out.Counts = append(out.Counts, rs.Counts[best])
	}
	return out
}

// maintainEnums carries every cached enumeration cell across a delta
// onto the not-yet-published epoch ne, returning the per-cell diffs.
// floor is Apply's insertion floor: the max closed-common-neighborhood
// size over inserted edges, bounding any clique the delta created.
// Called by Apply with no epoch locks held; ne is unpublished, so its
// lock is uncontended.
func (s *Session) maintainEnums(ne *epoch, oldEnums map[enumKey]*enumSet, floor int32) (diffs []EnumDiff, maintained, recomputed int64) {
	if len(oldEnums) == 0 {
		return nil, 0, 0
	}
	keys := make([]enumKey, 0, len(oldEnums))
	for k := range oldEnums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.K != kb.K {
			return ka.K < kb.K
		}
		if ka.Delta != kb.Delta {
			return ka.Delta < kb.Delta
		}
		return !ka.Weak && kb.Weak
	})
	for _, key := range keys {
		old := oldEnums[key]
		diff := EnumDiff{K: key.K, Delta: key.Delta, Weak: key.Weak}
		var survivors [][]int32
		for _, c := range old.cliques {
			if ne.g.IsClique(c) { // attributes are immutable: still fair
				survivors = append(survivors, c)
			}
		}
		var set *enumSet
		switch {
		case old.size == 0 && floor < 2*key.K:
			// A proven-empty cell stays empty: deletions create nothing
			// and any created clique fits under floor < 2k — below the
			// fair minimum.
			set = old
			maintained++
		case len(survivors) > 0 && floor < old.size:
			// No created clique can reach the old optimum (it would
			// contain an inserted edge, hence fit under floor), and the
			// optimum is still attained: deletions only destroy, so every
			// new-graph optimum clique was an old-graph one. The
			// survivors are exactly the new set.
			set = &enumSet{cliques: survivors, size: old.size}
			maintained++
		default:
			// The optimum may have moved either way: re-enumerate on the
			// new epoch.
			q := Query{K: key.K, Delta: key.Delta, Weak: key.Weak, Kind: KindEnumerateAll}
			rs, err := s.enumerateOn(ne, q)
			recomputed++
			diff.Recomputed = true
			if err != nil || !rs.Exact {
				// Budget-aborted or failed: the cell leaves the cache
				// (inexact sets are never cached) and is rebuilt on the
				// next Enumerate. Report the whole old set as died so the
				// diff stream never silently loses a cell.
				diff.Dropped = true
				diff.Died = old.cliques
				diffs = append(diffs, diff)
				continue
			}
			set = &enumSet{cliques: rs.Cliques, size: rs.Size}
		}
		ne.mu.Lock()
		s.storeEnumLocked(ne, key, set)
		ne.mu.Unlock()
		diff.Size = set.size
		diff.Died, diff.Born = diffCliqueSets(old.cliques, set.cliques)
		diffs = append(diffs, diff)
	}
	return diffs, maintained, recomputed
}

// diffCliqueSets returns old-set cliques absent from the new set and
// vice versa. Cliques are canonical ascending-sorted, so a byte-encoded
// key is an identity.
func diffCliqueSets(oldC, newC [][]int32) (died, born [][]int32) {
	oldKeys := make(map[string]bool, len(oldC))
	for _, c := range oldC {
		oldKeys[cliqueBytes(c)] = true
	}
	newKeys := make(map[string]bool, len(newC))
	for _, c := range newC {
		newKeys[cliqueBytes(c)] = true
	}
	for _, c := range oldC {
		if !newKeys[cliqueBytes(c)] {
			died = append(died, c)
		}
	}
	for _, c := range newC {
		if !oldKeys[cliqueBytes(c)] {
			born = append(born, c)
		}
	}
	return died, born
}

func cliqueBytes(c []int32) string {
	b := make([]byte, 4*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}
