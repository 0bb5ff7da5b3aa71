package bounds

import (
	"math/bits"
	"testing"
	"testing/quick"

	"fairclique/internal/color"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

func random(seed uint64, n int, p float64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(r.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

func balancedClique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetAttr(int32(v), graph.Attr(v%2))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// bruteMaxFair enumerates all vertex subsets (n <= 20) and returns the
// size of the largest clique meeting the (k, delta) fairness condition,
// or 0 if none exists.
func bruteMaxFair(g *graph.Graph, k, delta int) int {
	n := int(g.N())
	if n > 20 {
		panic("bruteMaxFair: graph too large")
	}
	adj := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			adj[v] |= 1 << uint(w)
		}
	}
	best := 0
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		size := bits.OnesCount32(mask)
		if size <= best || size < 2*k {
			continue
		}
		na := 0
		ok := true
		for m := mask; m != 0; {
			v := bits.TrailingZeros32(m)
			m &^= 1 << uint(v)
			if adj[v]&mask != mask&^(1<<uint(v)) {
				ok = false
				break
			}
			if g.Attr(int32(v)) == graph.AttrA {
				na++
			}
		}
		if !ok {
			continue
		}
		nb := size - na
		if na < k || nb < k || na-nb > delta || nb-na > delta {
			continue
		}
		best = size
	}
	return best
}

func TestCombine(t *testing.T) {
	cases := []struct {
		x, y, d, want int32
	}{
		{5, 5, 0, 10},
		{5, 5, 3, 10},
		{8, 3, 2, 8}, // 2*3+2
		{3, 8, 2, 8}, // symmetric
		{0, 9, 1, 1}, // 2*0+1
		{4, 5, 1, 9}, // diff == delta: sum
		{4, 6, 1, 9}, // diff > delta: 2*4+1
	}
	for _, tc := range cases {
		if got := Combine(tc.x, tc.y, tc.d); got != tc.want {
			t.Errorf("Combine(%d,%d,%d) = %d; want %d", tc.x, tc.y, tc.d, got, tc.want)
		}
	}
}

// perLemmaBound is the configured bound spelled out lemma by lemma:
// the minimum of the five ubAD functions (Lemmas 5-9) and the extra's
// own bound function, all over the colouring col of g.
func perLemmaBound(g *graph.Graph, col *color.Coloring, delta int32, extra Extra) int32 {
	ub := Size(g)
	for _, v := range []int32{Attribute(g, delta), Color(col),
		AttributeColor(g, col, delta), EnhancedAttributeColor(g, col, delta)} {
		ub = min(ub, v)
	}
	switch extra {
	case Degeneracy:
		ub = min(ub, DegeneracyBound(g))
	case HIndex:
		ub = min(ub, HIndexBound(g))
	case ColorfulDegeneracy:
		ub = min(ub, ColorfulDegeneracyBound(g, col, delta))
	case ColorfulHIndex:
		ub = min(ub, ColorfulHIndexBound(g, col, delta))
	case ColorfulPath:
		ub = min(ub, ColorfulPathBound(g, col))
	}
	return ub
}

// AD, the one ubAD formula Profile and the branch loop share, must
// equal the minimum of the five per-lemma functions (Lemmas 5-9) when
// fed the attribute counts and the class split of the same greedy
// colouring. One Profile per extra must then price every δ in 0..4 as
// the per-lemma minimum with the extra's own bound function — the empty
// graph included.
func TestADMatchesPerLemmaBounds(t *testing.T) {
	profileMatches := func(g *graph.Graph, col *color.Coloring) bool {
		for _, extra := range Extras() {
			p := NewProfile(g, extra)
			for delta := int32(0); delta <= 4; delta++ {
				if got, want := p.Bound(delta), perLemmaBound(g, col, delta, extra); got != want {
					t.Logf("n=%d %v δ=%d: Profile.Bound = %d, per-lemma minimum %d", g.N(), extra, delta, got, want)
					return false
				}
			}
		}
		return true
	}
	empty := graph.NewBuilder(0).Build()
	if !profileMatches(empty, color.Greedy(empty)) {
		t.Fatal("empty graph")
	}
	f := func(seed uint64, n8, p8, d8 uint8) bool {
		g := random(seed, 1+int(n8%40), 0.1+float64(p8)/255*0.8)
		delta := int32(d8 % 4)
		col := color.Greedy(g)
		// The class split, counted independently of colorful.ClassCounts.
		hasA, hasB := map[int32]bool{}, map[int32]bool{}
		for v := int32(0); v < g.N(); v++ {
			if g.Attr(v) == graph.AttrA {
				hasA[col.Of(v)] = true
			} else {
				hasB[col.Of(v)] = true
			}
		}
		var ca, cb, cm int32
		for c := int32(0); c < col.Num; c++ {
			switch {
			case hasA[c] && hasB[c]:
				cm++
			case hasA[c]:
				ca++
			case hasB[c]:
				cb++
			}
		}
		na, nb := g.AttrCount()
		if got, want := AD(na, nb, ca, cb, cm, delta), perLemmaBound(g, col, delta, None); got != want {
			t.Logf("seed=%d n=%d δ=%d: AD = %d, per-lemma minimum %d", seed, g.N(), delta, got, want)
			return false
		}
		return profileMatches(g, col)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleBoundsOnBalancedClique(t *testing.T) {
	g := balancedClique(8)
	col := color.Greedy(g)
	if Size(g) != 8 {
		t.Fatal("ubs")
	}
	if Attribute(g, 0) != 8 {
		t.Fatal("uba on balanced clique")
	}
	if Color(col) != 8 {
		t.Fatal("ubc: clique needs n colors")
	}
	if AttributeColor(g, col, 0) != 8 {
		t.Fatal("ubac")
	}
	if EnhancedAttributeColor(g, col, 0) != 8 {
		t.Fatal("ubeac")
	}
	if DegeneracyBound(g) != 8 {
		t.Fatalf("ub△ = %d; want 8", DegeneracyBound(g))
	}
	if HIndexBound(g) != 8 {
		t.Fatalf("ubh = %d; want 8", HIndexBound(g))
	}
	// Colorful degeneracy of balanced K8 is 3; bound = 2*4+δ.
	if got := ColorfulDegeneracyBound(g, col, 0); got != 8 {
		t.Fatalf("ubcd = %d; want 8", got)
	}
	if got := ColorfulHIndexBound(g, col, 0); got != 8 {
		t.Fatalf("ubch = %d; want 8", got)
	}
	if got := ColorfulPathBound(g, col); got != 8 {
		t.Fatalf("ubcp = %d; want 8", got)
	}
}

func TestAttributeBoundSkew(t *testing.T) {
	// 6 a's, 2 b's, complete graph, delta=1 -> bound 2*2+1 = 5.
	b := graph.NewBuilder(8)
	for v := 0; v < 8; v++ {
		if v >= 6 {
			b.SetAttr(int32(v), graph.AttrB)
		}
	}
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.Build()
	if got := Attribute(g, 1); got != 5 {
		t.Fatalf("uba = %d; want 5", got)
	}
}

// The printed Lemma 9 formula (2*min+cm+δ) undercuts a real fair
// clique; the corrected bound stays valid. ca=0, cb=10, cm=2, δ=0 with
// an actual fair clique of size 4.
func TestEnhancedAttributeColorCorrection(t *testing.T) {
	b := graph.NewBuilder(14)
	// K4: vertices 0,1 attribute a; 2,3 attribute b.
	b.SetAttr(0, graph.AttrA)
	b.SetAttr(1, graph.AttrA)
	for v := int32(2); v < 14; v++ {
		b.SetAttr(v, graph.AttrB)
	}
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	// Hand-crafted proper coloring: b-vertices 4 and 5 reuse the colors
	// of a-vertices 0 and 1 (they are not adjacent), making both
	// a-colors mixed; the remaining b's get fresh colors.
	colors := []int32{0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 8, 9, 10, 11}
	col := &color.Coloring{Colors: colors, Num: 12}
	// Groups: ca=0 (colors 0,1 mixed), cb=10, cm=2.
	printed := int32(2*0 + 2 + 0) // the paper's literal formula
	truth := int32(bruteMaxFair(g, 2, 0))
	if truth != 4 {
		t.Fatalf("fixture broken: brute optimum %d; want 4", truth)
	}
	if printed >= truth {
		t.Fatalf("fixture does not demonstrate the unsoundness (printed %d >= %d)", printed, truth)
	}
	got := EnhancedAttributeColor(g, col, 0)
	if got < truth {
		t.Fatalf("corrected ubeac = %d undercuts optimum %d", got, truth)
	}
	if got != 4 {
		t.Fatalf("corrected ubeac = %d; want exactly 4 here", got)
	}
}

func TestColorfulPathBipartite(t *testing.T) {
	// K_{3,3} colored with 2 colors: no colorful path longer than 2.
	b := graph.NewBuilder(6)
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	g := b.Build()
	col := color.Greedy(g)
	if col.Num != 2 {
		t.Fatalf("expected 2 colors, got %d", col.Num)
	}
	if got := ColorfulPathBound(g, col); got != 2 {
		t.Fatalf("ubcp = %d; want 2", got)
	}
}

func TestColorfulPathEmptyAndSingle(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if got := ColorfulPathBound(g, color.Greedy(g)); got != 0 {
		t.Fatalf("empty ubcp = %d", got)
	}
	g = graph.NewBuilder(3).Build()
	if got := ColorfulPathBound(g, color.Greedy(g)); got != 1 {
		t.Fatalf("edgeless ubcp = %d; want 1", got)
	}
}

func TestExtraStringAndList(t *testing.T) {
	names := map[Extra]string{
		None: "ubAD", Degeneracy: "ubAD+ubDeg", HIndex: "ubAD+ubH",
		ColorfulDegeneracy: "ubAD+ubCD", ColorfulHIndex: "ubAD+ubCH",
		ColorfulPath: "ubAD+ubCP",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%v.String() = %q; want %q", int(e), e.String(), want)
		}
	}
	if Extra(99).String() != "unknown" {
		t.Error("out-of-range Extra should stringify as unknown")
	}
	if len(Extras()) != 6 {
		t.Errorf("Extras() lists %d configs; want 6", len(Extras()))
	}
}

// Soundness: every configured bound dominates the brute-force optimum
// on random instances, for every extra bound and several (k, δ).
func TestAllBoundsSound(t *testing.T) {
	f := func(seed uint64, n8, p8, k8, d8 uint8) bool {
		n := int(n8%13) + 2
		p := 0.3 + float64(p8%60)/100
		k := int(k8%3) + 1
		delta := int(d8 % 4)
		g := random(seed, n, p)
		truth := int32(bruteMaxFair(g, k, delta))
		for _, extra := range Extras() {
			if Evaluate(g, int32(delta), extra) < truth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// ubeac is never looser than ubac, and Evaluate never exceeds ubs.
func TestBoundDominanceProperty(t *testing.T) {
	f := func(seed uint64, n8, d8 uint8) bool {
		n := int(n8%25) + 1
		delta := int32(d8 % 4)
		g := random(seed, n, 0.4)
		col := color.Greedy(g)
		if EnhancedAttributeColor(g, col, delta) > AttributeColor(g, col, delta) {
			return false
		}
		for _, extra := range Extras() {
			if Evaluate(g, delta, extra) > Size(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The DP of Algorithm 4 must dominate the max clique size (a clique is
// a colorful path in the DAG).
func TestColorfulPathDominatesClique(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%12) + 2
		g := random(seed, n, 0.5)
		col := color.Greedy(g)
		// Brute max clique = brute fair clique with k=0, δ=n.
		truth := int32(bruteMaxFair(g, 0, n))
		return ColorfulPathBound(g, col) >= truth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if Evaluate(g, 2, ColorfulPath) != 0 {
		t.Fatal("empty instance should bound to 0")
	}
}

func BenchmarkEvaluate(b *testing.B) {
	g := random(1, 300, 0.1)
	for _, extra := range Extras() {
		b.Run(extra.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Evaluate(g, 2, extra)
			}
		})
	}
}
