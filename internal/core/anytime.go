// Anytime-search support: frontier pricing for certified optimality
// gaps, and live bound/incumbent injection between concurrently running
// searches.
//
// When a budget (Options.MaxNodes or Options.Deadline) aborts a search,
// the result must still be useful: the incumbent plus a certified upper
// bound on the optimum. The certificate is built from the same bounds
// the exact search prunes with — every region the search did not finish
// (root branches skipped or cut short, whole components never reached)
// contributes an upper bound on any fair clique inside it, and the
// certified bound is the max of those contributions and the incumbent,
// clamped to any trusted StopAtSize or injected bound. The accounting
// has two layers: splitRoot prices a started component's unclaimed and
// interrupted root branches, each whole, and sweepFrontier prices every
// component that was not accounted.
// Soundness argument: a clique of the optimum size is either inside a
// fully explored region (then the incumbent matched or beat it —
// exploration only prunes what is provably no better than the
// incumbent) or inside a priced region (then its size is at most that
// region's contribution).
//
// The accounting is deliberately conservative under races: a region
// whose completion raced the abort may be priced even though it was
// fully explored, which only loosens (never invalidates) the bound.
package core

import (
	"sync"

	"fairclique/internal/bounds"
	"fairclique/internal/graph"
)

// frontierEvalBudget caps the bounds.Evaluate calls the frontier sweep
// spends on components that never started, so certifying the gap cannot
// cost a meaningful fraction of the budget that just expired.
// Components beyond the budget contribute their cheap (size/fairness)
// bound instead — looser, still sound.
const frontierEvalBudget = 512

// anytime reports whether the run has a budget and therefore needs the
// certificate machinery armed. Exact runs keep it dormant so their
// behavior and allocation profile are untouched.
func (o *Options) anytime() bool {
	return o.MaxNodes > 0 || !o.Deadline.IsZero()
}

// accountComp marks component ci as fully explored or soundly pruned:
// the frontier sweep must not price it. No-op for exact runs.
func (s *searcher) accountComp(ci int) {
	if s.compAccounted != nil {
		s.compAccounted[ci].Store(true)
	}
}

// contributeUB folds one priced frontier region into the running
// certificate (CAS-max).
func (s *searcher) contributeUB(ub int32) {
	for {
		cur := s.frontUB.Load()
		if ub <= cur || s.frontUB.CompareAndSwap(cur, ub) {
			return
		}
	}
}

// certifiedUB is the final certificate of an aborted run: the max of
// the incumbent and every priced frontier region, clamped to any
// trusted external bound. Only meaningful after sweepFrontier.
func (s *searcher) certifiedUB() int32 {
	ub := s.frontUB.Load()
	if bs := s.bestSize.Load(); bs > ub {
		ub = bs
	}
	if st := s.stopAt.Load(); st > 0 && st < ub {
		ub = st
	}
	return ub
}

// priceFloor is the contribution below which pricing a region is
// pointless: it cannot raise the certificate.
func (s *searcher) priceFloor() int32 {
	floor := s.frontUB.Load()
	if bs := s.bestSize.Load(); bs > floor {
		floor = bs
	}
	return floor
}

// fairCap tightens a total-size bound with the attribute-count caps of
// a node: writing capX = cnt[x]+avail[x] for the largest count each
// attribute can reach, a fair clique there has nb <= min(capA, capB)
// and na <= nb+δ, so its size is at most 2*min+δ. Returns 0 when no
// fair clique fits at all.
func (s *searcher) fairCap(cnt, avail [2]int32) int32 {
	capA, capB := cnt[0]+avail[0], cnt[1]+avail[1]
	if capA < s.k || capB < s.k {
		return 0
	}
	m := capA
	if capB < m {
		m = capB
	}
	return 2*m + s.delta
}

// price folds one unexplored region into the certificate, given ub, an
// upper bound on any fair clique inside it. A region that cannot hold a
// fair clique, or cannot raise the certificate, is skipped.
func (s *searcher) price(ub int32) {
	if ub < 2*s.k || ub <= s.priceFloor() {
		return
	}
	s.frontPriced.Add(1)
	s.contributeUB(ub)
}

// priceNode prices the unexplored node (R, C) of the worker's component,
// R with attribute counts cnt and C with avail: by the size and fairness
// caps and the component's root bound — a region never prices above
// the component — and, when those leave it above the floor, by
// nodeBound on the candidate row (nil on the slice oracle path).
func (w *worker) priceNode(depth int, cnt, avail [2]int32, cand *graph.LiveRow) {
	s := w.d.s
	ub := min(int32(depth)+avail[0]+avail[1], s.fairCap(cnt, avail),
		w.d.profile(s.opt.Extra).Bound(s.delta))
	if cand != nil && ub >= 2*s.k && ub > s.priceFloor() {
		ub = min(ub, w.nodeBound(cnt, avail, *cand))
	}
	s.price(ub)
}

// priceRootBranches prices each unexplored root branch of a component:
// the branch vertex u with its full candidate row. A degree pre-filter
// skips branches that cannot move the certificate before any row work
// happens.
func (w *worker) priceRootBranches(tasks []int32) {
	d := w.d
	for _, u := range tasks {
		if 1+d.comp.Deg(u) <= d.s.priceFloor() {
			continue
		}
		var cnt [2]int32
		cnt[d.comp.Attr(u)]++
		if !d.bitset() {
			w.ensureSlice(1, len(d.allVerts))
			_, avail := w.makeChildSlice(1, d.allVerts, u, false)
			w.priceNode(1, cnt, avail, nil)
			continue
		}
		w.ensureBits(1)
		avail := w.makeChildBits(w.cand[1], d.fullRow, u, false)
		w.priceNode(1, cnt, avail, &w.cand[1])
	}
}

// sweepFrontier closes the certificate after an abort: every component
// not accounted as explored, priced or soundly pruned — in practice one
// the search never started — is priced whole: from the component's
// attribute histogram (cheap) and, under frontierEvalBudget, the Table
// II bound of the induced component. Runs after every worker has
// returned, so no contribution can arrive later.
func (s *searcher) sweepFrontier() {
	for ci, comp := range s.p.comps {
		if s.compAccounted[ci].Load() {
			continue
		}
		var cnt [2]int32
		for _, v := range comp {
			cnt[s.p.work.Attr(v)]++
		}
		ub := min(s.fairCap(cnt, [2]int32{}), int32(len(comp)))
		if ub >= 2*s.k && ub > s.priceFloor() && s.evalBudget.Add(-1) >= 0 {
			ub = min(ub, bounds.Evaluate(graph.Induce(s.p.work, comp).G, s.delta, s.opt.Extra))
		}
		s.price(ub)
	}
}

// Injector broadcasts proven knowledge into a running search: a trusted
// upper bound on this query's optimum (InjectBound — typically derived
// from a just-solved dominating grid cell via GridTable monotonicity)
// or a valid incumbent clique (InjectSeed). Injections arriving before
// the search starts are buffered and applied at attach time; injections
// after it finishes are buffered for nothing and simply dropped at the
// next attach. An Injector must serve at most one search at a time.
//
// Both calls are cheap and safe from any goroutine. The caller is
// responsible for validity: an InjectBound below the true optimum or an
// InjectSeed that is not a fair clique for the search's (k, δ) silently
// corrupts the result, exactly like a wrong Options.StopAtSize.
type Injector struct {
	mu          sync.Mutex
	s           *searcher
	pendingUB   int32 // min of pre-attach bounds; 0 = none
	pendingSeed []int32
}

// NewInjector returns an empty Injector ready to be set as
// Options.Injector.
func NewInjector() *Injector { return &Injector{} }

// InjectBound supplies a trusted upper bound (> 0) on the search's
// optimum. The search's stop-at threshold tightens to the minimum of
// all injected bounds; when the incumbent already meets it, the search
// finishes early and exact. Size-0 bounds cannot be encoded (0 means
// "none") and are ignored — searches of provably empty cells are fast
// anyway.
func (in *Injector) InjectBound(ub int32) {
	if ub <= 0 {
		return
	}
	in.mu.Lock()
	s := in.s
	if s == nil {
		if in.pendingUB == 0 || ub < in.pendingUB {
			in.pendingUB = ub
		}
		in.mu.Unlock()
		return
	}
	in.mu.Unlock()
	s.injectBound(ub)
}

// InjectSeed supplies a valid (k, δ)-fair clique for the running
// search's query, in ORIGINAL graph ids. The incumbent adopts it when
// strictly larger; the slice is copied.
func (in *Injector) InjectSeed(verts []int32) {
	if len(verts) == 0 {
		return
	}
	in.mu.Lock()
	s := in.s
	if s == nil {
		if len(verts) > len(in.pendingSeed) {
			in.pendingSeed = append(in.pendingSeed[:0], verts...)
		}
		in.mu.Unlock()
		return
	}
	in.mu.Unlock()
	s.record(verts, nil)
}

// attach binds the Injector to a starting search and applies anything
// buffered while no search was running.
func (in *Injector) attach(s *searcher) {
	in.mu.Lock()
	in.s = s
	ub, seed := in.pendingUB, in.pendingSeed
	in.pendingUB, in.pendingSeed = 0, nil
	in.mu.Unlock()
	if seed != nil {
		s.record(seed, nil)
	}
	if ub > 0 {
		s.injectBound(ub)
	}
}

// detach unbinds the Injector when its search returns.
func (in *Injector) detach() {
	in.mu.Lock()
	in.s = nil
	in.mu.Unlock()
}

// injectBound tightens the search's trusted optimum bound (CAS-min) and
// finishes the run early — still exact — when the incumbent already
// meets it.
func (s *searcher) injectBound(ub int32) {
	for {
		cur := s.stopAt.Load()
		if cur > 0 && cur <= ub {
			break
		}
		if s.stopAt.CompareAndSwap(cur, ub) {
			break
		}
	}
	// Not in collect mode: reaching the optimum size does not mean every
	// optimum-sized clique has been visited yet.
	if st := s.stopAt.Load(); !s.collectAll && st > 0 && s.bestSize.Load() >= st {
		s.done.Store(true)
	}
}
