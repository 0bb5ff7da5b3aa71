// Dynamic: keep one warm Session alive while the graph changes
// underneath it. Session.Apply takes a batched delta (edge/vertex
// inserts and deletes), bumps the session to a new epoch, and
// invalidates only the state the delta touches: a reduction snapshot
// keeps its untouched components (and, when the delta cannot change
// it, its built search machinery), surviving answers keep seeding and
// bounding, and a requery after a local change typically costs a
// small fraction of building a fresh session.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"

	"fairclique"
)

func main() {
	// A social network with two tight communities: a balanced K8
	// (vertices 0-7) and a balanced K6 (vertices 8-13), plus a sparse
	// periphery hanging off each.
	g := fairclique.NewGraph(20)
	for v := 0; v < 20; v++ {
		g.SetAttr(v, fairclique.Attr(v%2))
	}
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			g.AddEdge(u, v)
		}
	}
	for u := 8; u < 14; u++ {
		for v := u + 1; v < 14; v++ {
			g.AddEdge(u, v)
		}
	}
	for v := 14; v < 20; v++ {
		g.AddEdge(v, v%8) // periphery
	}

	s := fairclique.NewSession(g)
	spec := fairclique.QuerySpec{K: 2, Delta: 1}
	res, err := s.Find(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial maximum fair clique: size %d %v\n", res.Size(), res.Clique)

	// A member of the big community leaves one friendship: the witness
	// clique breaks and the optimum shrinks. The re-peel touches only
	// that community's part of the reduced graph, and the changed
	// reduction's search machinery is built afresh on the next query
	// (0 component preps reused).
	ast, err := s.Apply(fairclique.Delta{DelEdges: [][2]int{{0, 1}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after -e(0,1): epoch %d, %d component preps reused, pool %d kept / %d dropped\n",
		ast.Epoch, ast.CompPrepsReused, ast.PoolRetained, ast.PoolDropped)
	res, err = s.Find(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximum fair clique now: size %d\n", res.Size())

	// Two newcomers join and wire into the smaller community. The
	// insertion changes the reduced graph again, so again nothing of
	// its search machinery is reused: 0 component preps.
	delta := fairclique.Delta{AddVertices: []fairclique.Attr{fairclique.AttrA, fairclique.AttrB}}
	for v := 8; v < 14; v++ {
		delta.AddEdges = append(delta.AddEdges, [2]int{v, 20}, [2]int{v, 21})
	}
	delta.AddEdges = append(delta.AddEdges, [2]int{20, 21})
	ast, err = s.Apply(delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after two joins: epoch %d, +%d vertices, +%d edges, %d component preps reused\n",
		ast.Epoch, ast.NewVertices, ast.InsertedEdges, ast.CompPrepsReused)
	res, err = s.Find(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximum fair clique now: size %d %v\n", res.Size(), res.Clique)

	st := s.Stats()
	fmt.Printf("session: %d queries over %d epochs, %d applies, %d snapshots reused verbatim, %d patched\n",
		st.Queries, st.Epoch+1, st.Applies, st.SnapshotsReused, st.SnapshotsPatched)
}
