package enum

import (
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/workload"
)

// TestDepthStatsMatchProfile: the per-depth lookup/output counters must
// agree exactly with the EXPLAIN ANALYZE per-vertex enumeration funnel —
// they are the same events, bucketed by order position instead of
// vertex. Runs multi-worker to exercise the cross-worker drain.
func TestDepthStatsMatchProfile(t *testing.T) {
	cases := []struct {
		name        string
		data, query *graph.Graph
	}{
		{"fig1", gen.Fig1Data(), gen.Fig1Query()},
		{"random-pair-11", nil, nil},
	}
	cases[1].data, cases[1].query = gen.RandomPair(11)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree, err := order.Preprocess(tc.data, tc.query, order.Options{})
			if err != nil {
				t.Fatal(err)
			}
			collector := prof.New()
			ix := ceci.Build(tc.data, tree, ceci.Options{Profile: collector})
			ds := NewDepthStats(tree.NumVertices())
			NewMatcher(ix, Options{Workers: 4, Profile: collector, Depth: ds}).Count()

			lookups, emitted := ds.Snapshot()
			p := collector.Snapshot()
			for pos, u := range tree.Order {
				e := p.Vertices[u].Enum
				if lookups[pos] != e.Lookups || emitted[pos] != e.Output {
					t.Fatalf("depth %d (u%d): depth stats %d/%d != profile %d/%d",
						pos, u, lookups[pos], emitted[pos], e.Lookups, e.Output)
				}
			}
		})
	}
}

// TestDepthStatsZeroAlloc: enabling the depth counters must not break
// the zero-allocation steady state — counting is two plain adds, and
// the unit-boundary drain reuses the watermark slices.
func TestDepthStatsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := ceci.Build(data, tree, ceci.Options{})
	ds := NewDepthStats(tree.NumVertices())
	m := NewMatcher(ix, Options{Workers: 1, Strategy: workload.FGD, Depth: ds})
	units := m.schedule()
	if units.Len() == 0 {
		t.Skip("no work units")
	}
	ctl := &control{fn: func([]graph.VertexID) bool { return true }}
	s := newSearcher(m, ctl)
	pass := func() {
		for i := 0; i < units.Len(); i++ {
			s.runUnit(units.Unit(i))
		}
		s.chargeDepth()
	}
	pass()
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("depth-counted enumeration pass allocates %.1f times, want 0", avg)
	}
	if l, _ := ds.Snapshot(); l[1] == 0 {
		t.Fatal("depth stats recorded nothing")
	}
}
