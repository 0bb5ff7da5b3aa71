// Anytime-search support: frontier pricing for certified optimality
// gaps, and live bound/incumbent injection between concurrently running
// searches.
//
// When a budget (Options.MaxNodes or Options.Deadline) aborts a search,
// the result must still be useful: the incumbent plus a certified upper
// bound on the optimum. The certificate is built from the same Table II
// machinery the exact search prunes with — every region the search did
// not finish (skipped root branches, donated subtrees cut short, whole
// components never reached) contributes an upper bound on any fair
// clique inside it, and the certified bound is the max of those
// contributions and the incumbent, clamped to any trusted StopAtSize or
// injected bound. Soundness argument: a clique of the optimum size is
// either inside a fully explored region (then the incumbent matched or
// beat it — exploration only prunes what is provably no better than the
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
	"fairclique/internal/sched"
)

// frontierEvalBudget caps the expensive Table II evaluator calls spent
// on pricing after an abort, so certifying the gap cannot cost a
// meaningful fraction of the budget that just expired. Regions beyond
// the budget contribute their cheap (size/fairness) bound instead —
// looser, still sound.
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

// priceRootBranches contributes an upper bound for each unexplored root
// branch of a component: the branch vertex u with its full candidate
// row, bounded cheaply (size + fairness caps) and, while the evaluator
// budget lasts, tightened with the Table II evaluator — the identical
// computation the exact search prunes with, so the certificate is as
// tight as the search is smart. A degree pre-filter skips branches that
// cannot move the certificate before any row work happens.
func (w *worker) priceRootBranches(tasks []int32) {
	d := w.d
	s := d.s
	if s.compAccounted == nil {
		// Halted without the certificate machinery armed (an external
		// Injector.Cancel on an exact run): nothing to price — the
		// caller reports the conservative whole-graph bound instead.
		return
	}
	for _, u := range tasks {
		if 1+d.comp.Deg(u) <= s.priceFloor() {
			continue
		}
		var cnt [2]int32
		cnt[d.comp.Attr(u)]++
		w.rbuf[0] = u
		var avail [2]int32
		var row *graph.LiveRow
		var cs []int32
		if d.bitset() {
			w.ensureBits(1)
			avail = w.makeChildBits(w.cand[1], d.fullRow, u, false)
			row = &w.cand[1]
		} else {
			w.ensureSlice(1, len(d.allVerts))
			cs, avail = w.makeChildSlice(1, d.allVerts, u, false)
		}
		ub := 1 + avail[0] + avail[1]
		if fc := s.fairCap(cnt, avail); fc < ub {
			ub = fc
		}
		if ub < 2*s.k || ub <= s.priceFloor() {
			continue
		}
		if s.evalBudget.Add(-1) >= 0 {
			var ev int32
			if row != nil {
				ev = w.ev.EvaluateRow(d.comp, w.rbuf[:1], *row, s.delta, s.opt.Extra)
			} else {
				ev = w.ev.Evaluate(d.comp, w.rbuf[:1], cs, s.delta, s.opt.Extra)
			}
			if ev < ub {
				ub = ev
			}
		}
		s.frontPriced.Add(1)
		s.contributeUB(ub)
	}
}

// priceTask contributes an upper bound for a donated subtree that an
// abort may have cut short: the task buffer still holds the node's R
// prefix, counts and candidate row untouched (runStolen copies them
// into the worker's arenas).
func (w *worker) priceTask(t *subtreeTask) {
	s := t.d.s
	if s.compAccounted == nil {
		return // cancelled exact run: see priceRootBranches
	}
	ub := int32(t.depth) + t.avail[0] + t.avail[1]
	if fc := s.fairCap(t.cnt, t.avail); fc < ub {
		ub = fc
	}
	if ub < 2*s.k || ub <= s.priceFloor() {
		return
	}
	if s.evalBudget.Add(-1) >= 0 {
		if ev := w.ev.EvaluateRow(t.d.comp, t.r[:t.depth], t.cand, s.delta, s.opt.Extra); ev < ub {
			ub = ev
		}
	}
	s.frontPriced.Add(1)
	s.contributeUB(ub)
}

// sweepFrontier closes the certificate after an abort: every component
// not accounted as explored or soundly pruned is priced at its root —
// from the component's attribute histogram (cheap) and, under the
// evaluator budget, the Table II evaluator over the whole component on
// the reduced graph. Runs after every worker and donated task has
// finished, so no contribution can arrive later.
func (s *searcher) sweepFrontier() {
	if s.compAccounted == nil {
		return
	}
	var ev bounds.Evaluator
	for ci, comp := range s.p.comps {
		if s.compAccounted[ci].Load() {
			continue
		}
		var cnt [2]int32
		for _, v := range comp {
			cnt[s.p.work.Attr(v)]++
		}
		ub := s.fairCap(cnt, [2]int32{})
		if n := int32(len(comp)); n < ub {
			ub = n
		}
		if ub < 2*s.k || ub <= s.priceFloor() {
			continue
		}
		if s.evalBudget.Add(-1) >= 0 {
			if e := ev.Evaluate(s.p.work, nil, comp, s.delta, s.opt.Extra); e < ub {
				ub = e
			}
		}
		s.frontPriced.Add(1)
		s.contributeUB(ub)
	}
}

// heurTask races one portfolio heuristic on a spare pool executor: an
// anytime search submits these next to its real branching work, so idle
// executors strengthen the incumbent while the search runs. The
// portfolio member returns a valid fair clique (or nil), so record()
// trusts it.
type heurTask struct {
	scope *sched.Scope
	s     *searcher
	fn    func(*graph.Graph, int32, int32) []int32
}

func (t *heurTask) TaskScope() *sched.Scope { return t.scope }

func (t *heurTask) Run(int) {
	if t.s.halted() {
		return
	}
	if c := t.fn(t.s.p.work, t.s.k, t.s.delta); len(c) > 0 {
		t.s.record(c, t.s.p.toOrig)
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
	mu            sync.Mutex
	s             *searcher
	pendingUB     int32 // min of pre-attach bounds; 0 = none
	pendingSeed   []int32
	pendingCancel bool
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
	s.recordOrig(verts)
}

// Cancel aborts the attached search as soon as its workers notice (node
// granularity, like a deadline firing): the search returns early with
// Stats.Aborted set, its best incumbent, and a sound — if loose —
// UpperBound. The session layer quarantines such results exactly like
// anytime aborts: never added to the grid table, the clique pool, or
// broadcast to sibling searches. A Cancel before attach is buffered and
// applied the moment the search starts, so a speculated cell cancelled
// during setup never expands a node. Cancel-then-exact is still
// possible: if an injected bound is met by the incumbent before the
// abort is observed, the run finishes exact and the cancel is moot.
func (in *Injector) Cancel() {
	in.mu.Lock()
	s := in.s
	if s == nil {
		in.pendingCancel = true
		in.mu.Unlock()
		return
	}
	in.mu.Unlock()
	s.aborted.Store(true)
}

// attach binds the Injector to a starting search and applies anything
// buffered while no search was running.
func (in *Injector) attach(s *searcher) {
	in.mu.Lock()
	in.s = s
	ub, seed, cancel := in.pendingUB, in.pendingSeed, in.pendingCancel
	in.pendingUB, in.pendingSeed, in.pendingCancel = 0, nil, false
	in.mu.Unlock()
	if cancel {
		s.aborted.Store(true)
	}
	if seed != nil {
		s.recordOrig(seed)
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
