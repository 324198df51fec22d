package enum

import (
	"context"
	"testing"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/workload"
)

// TestSymmetryOffSameIndex: on one frozen index, disabling symmetry
// breaking (unbounded lookups) lists orbit size × the constrained count
// (bounded lookups), for every strategy and for edge verification.
func TestSymmetryOffSameIndex(t *testing.T) {
	type pair struct{ data, query *graph.Graph }
	var pairs []pair
	for seed := int64(1); seed <= 60; seed++ {
		d, q := gen.RandomPair(seed)
		pairs = append(pairs, pair{d, q})
	}
	kron := gen.Kronecker(8, 8, 1)
	pairs = append(pairs, pair{kron, gen.QG3()}, pair{kron, gen.QG5()})
	symmetric := 0
	for i, p := range pairs {
		tree, err := order.Preprocess(p.data, p.query, order.DefaultOptions())
		if err != nil {
			continue
		}
		ix := ceci.Build(p.data, tree, ceci.Options{})
		orbit := int64(auto.Compute(p.query).OrbitSize())
		if orbit > 1 {
			symmetric++
		}
		for _, opts := range []Options{
			{Workers: 1, Strategy: workload.ST},
			{Workers: 3, Strategy: workload.FGD, Beta: 0.05},
			{Workers: 1, EdgeVerification: true},
		} {
			on := NewMatcher(ix, opts).Count()
			opts.DisableSymmetryBreaking = true
			off := NewMatcher(ix, opts).Count()
			if off != orbit*on {
				t.Fatalf("pair %d %+v: %d without symmetry breaking, want %d × %d", i, opts, off, orbit, on)
			}
		}
	}
	if symmetric == 0 {
		t.Fatal("no fixture has a symmetric query")
	}
}

// ringOfTriangles returns n vertices, each adjacent to the next two
// around a ring: every vertex is a triangle pivot, with n triangles.
func ringOfTriangles(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+2)%n))
	}
	return b.MustBuild()
}

// TestScheduleFromFrozenRoot: scheduled clusters carry the cardinality
// ClusterCardinality reports for their pivot, and a first-2000 page
// allocates no more on a 30k-pivot index than on a 3k-pivot one — the
// schedule reads pivots and cards from the frozen root by index instead
// of copying them into per-query units.
func TestScheduleFromFrozenRoot(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{3000, 30000} {
		data := ringOfTriangles(n)
		tree, err := order.Preprocess(data, gen.QG1(), order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		if len(ix.Pivots()) < n {
			t.Fatalf("%d pivots on a %d-vertex ring", len(ix.Pivots()), n)
		}
		for _, strat := range []workload.Strategy{workload.ST, workload.CGD, workload.FGD} {
			sched := NewMatcher(ix, Options{Workers: 1, Strategy: strat}).schedule()
			if sched.Len() != len(ix.Pivots()) {
				t.Fatalf("%v: %d units for %d pivots", strat, sched.Len(), len(ix.Pivots()))
			}
			for i, pv := range ix.Pivots() {
				u := sched.Unit(i)
				if len(u.Prefix) != 1 || u.Prefix[0] != pv || u.Card != ix.ClusterCardinality(pv) {
					t.Fatalf("%v unit %d = %+v, want pivot %d card %d", strat, i, u, pv, ix.ClusterCardinality(pv))
				}
			}
		}
		if raceEnabled {
			continue // the race runtime allocates
		}
		m := NewMatcher(ix, Options{Workers: 1, Limit: 2000})
		var got int
		page := func() {
			got = 0
			m.ForEachCtx(context.Background(), func([]graph.VertexID) bool {
				got++
				return true
			})
		}
		allocs[n] = testing.AllocsPerRun(10, page)
		if got != 2000 {
			t.Fatalf("n=%d: page delivered %d embeddings, want 2000", n, got)
		}
	}
	if allocs[30000] > allocs[3000] {
		t.Fatalf("a 2000-embedding page allocates %.1f times on 30k pivots, %.1f on 3k: scheduling grows with the pivot count",
			allocs[30000], allocs[3000])
	}
}
