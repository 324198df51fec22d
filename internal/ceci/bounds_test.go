package ceci

import (
	"math/rand"
	"testing"

	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// TestBoundedLookupMatchesAllowsFilter: at every depth of random partial
// embeddings, a lookup bounded by the symmetry-breaking interval returns
// exactly the unbounded lookup filtered by Allows, on both the direct and
// the stable-cache path and for the edge-verification variant. Seeded gen.RandomPair inputs, plus cliques on a Kronecker graph,
// whose symmetric vertices take the cached path.
func TestBoundedLookupMatchesAllowsFilter(t *testing.T) {
	type pair struct{ data, query *graph.Graph }
	var pairs []pair
	for seed := int64(1); seed <= 300; seed++ {
		d, q := gen.RandomPair(seed)
		pairs = append(pairs, pair{d, q})
	}
	kron := gen.Kronecker(8, 8, 1)
	pairs = append(pairs, pair{kron, gen.QG3()}, pair{kron, gen.QG5()})

	rng := rand.New(rand.NewSource(3))
	var bounded, cached int
	for pi, p := range pairs {
		tree, err := order.Preprocess(p.data, p.query, order.DefaultOptions())
		if err != nil {
			continue
		}
		ix := Build(p.data, tree, Options{})
		cons := auto.Compute(p.query)
		n := tree.NumVertices()
		scB := make([]MatchScratch, n)
		scU := make([]MatchScratch, n)
		for rep := 0; rep < 20; rep++ {
			roots := ix.Pivots()
			if len(roots) == 0 {
				break
			}
			m := make([]graph.VertexID, n)
			matched := make([]bool, n)
			m[tree.Order[0]] = roots[rng.Intn(len(roots))]
			matched[tree.Order[0]] = true
			for i := 1; i < n; i++ {
				u := tree.Order[i]
				lo, hi := cons.Bounds(u, m, matched)
				if lo != auto.NoLower || hi != auto.NoUpper {
					bounded++
					if ix.ntePlan[u].use {
						cached++
					}
				}
				allow := func(l []graph.VertexID) []graph.VertexID {
					var out []graph.VertexID
					for _, v := range l {
						if cons.Allows(u, v, m, matched) {
							out = append(out, v)
						}
					}
					return out
				}
				got := append([]graph.VertexID(nil), ix.CandidatesFor(u, m, lo, hi, &scB[i])...)
				want := allow(ix.CandidatesFor(u, m, auto.NoLower, auto.NoUpper, &scU[i]))
				if !eqVals(got, want) {
					t.Fatalf("pair %d rep %d u%d (%d, %d): bounded %v, filtered %v", pi, rep, u, lo, hi, got, want)
				}
				if ev, want := ix.CandidatesForEdgeVerify(u, m, lo, hi), allow(ix.CandidatesForEdgeVerify(u, m, auto.NoLower, auto.NoUpper)); !eqVals(ev, want) {
					t.Fatalf("pair %d u%d: bounded edge-verify %v, filtered %v", pi, u, ev, want)
				}
				var free []graph.VertexID
				for _, v := range got {
					used := false
					for _, w := range tree.Order[:i] {
						used = used || m[w] == v
					}
					if !used {
						free = append(free, v)
					}
				}
				if len(free) == 0 {
					break
				}
				m[u] = free[rng.Intn(len(free))]
				matched[u] = true
			}
		}
	}
	if bounded == 0 || cached == 0 {
		t.Fatalf("bounded lookups %d, of them on the cached path %d: fixtures exercise too little", bounded, cached)
	}
}
