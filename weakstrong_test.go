package fairclique

import (
	"testing"
	"testing/quick"

	"fairclique/internal/rng"
)

func TestFindWeak(t *testing.T) {
	// K8 with 6 a's and 2 b's: weak fairness (k=2) allows all 8
	// vertices; the relative model with small δ would not.
	g := buildComplete(8, 6)
	res, err := findMode(g, 2, ModeWeak)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 8 {
		t.Fatalf("weak fair clique size %d; want 8", res.Size())
	}
	strict, err := Find(g, DefaultOptions(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if strict.Size() != 5 {
		t.Fatalf("relative δ=1 size %d; want 5", strict.Size())
	}
}

func TestFindStrong(t *testing.T) {
	// K7 with 4 a's and 3 b's: strong fairness forces 3+3.
	g := buildComplete(7, 4)
	res, err := findMode(g, 3, ModeStrong)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 6 || res.CountA != res.CountB {
		t.Fatalf("strong result %+v; want balanced 6", res)
	}
}

func TestWeakStrongSandwich(t *testing.T) {
	// strong(k) <= relative(k, δ) <= weak(k) for any δ.
	f := func(seed uint64, n8, k8, d8 uint8) bool {
		n := int(n8%18) + 4
		k := int(k8%3) + 1
		delta := int(d8 % 4)
		r := rng.New(seed)
		g := NewGraph(n)
		for v := 0; v < n; v++ {
			g.SetAttr(v, Attr(r.Intn(2)))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.5) {
					g.AddEdge(u, v)
				}
			}
		}
		strong, err1 := findMode(g, k, ModeStrong)
		rel, err2 := Find(g, DefaultOptions(k, delta))
		weak, err3 := findMode(g, k, ModeWeak)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return strong.Size() <= rel.Size() && rel.Size() <= weak.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersThroughPublicAPI(t *testing.T) {
	g := buildRandom(17, 120, 0.15)
	opt := DefaultOptions(2, 2)
	serial, err := Find(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	par, err := Find(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Size() != par.Size() {
		t.Fatalf("serial %d vs parallel %d", serial.Size(), par.Size())
	}
}
