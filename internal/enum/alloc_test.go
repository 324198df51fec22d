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

// denseClique returns K_n: every candidate list during a clique-query
// enumeration is a gap-1 run, which drives the bitset kernel.
func denseClique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	return b.MustBuild()
}

// hubTriangles returns two hub vertices connected to every leaf plus a
// leaf-chain, so triangle enumeration intersects a huge hub adjacency
// against tiny leaf adjacencies — a >16:1 skew that drives the gallop
// kernel.
func hubTriangles(leaves int) *graph.Graph {
	b := graph.NewBuilder(2 + leaves)
	for i := 0; i < leaves; i++ {
		leaf := graph.VertexID(2 + i)
		b.AddEdge(0, leaf)
		b.AddEdge(1, leaf)
		if i > 0 {
			b.AddEdge(leaf-1, leaf)
		}
	}
	b.AddEdge(0, 1)
	return b.MustBuild()
}

// labeledHubTriangles returns a labeled triangle query with three
// distinct labels, which has no automorphisms, so symmetry breaking never
// bounds its lookups, and a data graph for it: hubs of labels 0 and 1,
// all adjacent to each other, plus label-2 leaves spaced stride ids
// apart. Leaf i is adjacent to hub a of label 0 when i+a is even and to
// hub b of label 1 when i+b is not a multiple of three. Closing a
// triangle intersects two comparably sized leaf lists whose values are
// sparse but spread no wider than the probe kernel's span gate, which
// drives the probe kernel.
func labeledHubTriangles(hubs, leaves, stride int) (data, query *graph.Graph) {
	b := graph.NewBuilder(2*hubs + leaves*stride)
	for a := 0; a < hubs; a++ {
		b.SetLabel(graph.VertexID(hubs+a), 1)
		for c := 0; c < hubs; c++ {
			b.AddEdge(graph.VertexID(a), graph.VertexID(hubs+c))
		}
	}
	for i := 0; i < leaves*stride; i++ {
		b.SetLabel(graph.VertexID(2*hubs+i), 2)
	}
	for i := 0; i < leaves; i++ {
		leaf := graph.VertexID(2*hubs + i*stride)
		for a := 0; a < hubs; a++ {
			if (i+a)%2 == 0 {
				b.AddEdge(graph.VertexID(a), leaf)
			}
			if (i+a)%3 != 0 {
				b.AddEdge(graph.VertexID(hubs+a), leaf)
			}
		}
	}
	q := graph.NewBuilder(3)
	q.SetLabel(1, 1)
	q.SetLabel(2, 2)
	q.AddEdge(0, 1)
	q.AddEdge(1, 2)
	q.AddEdge(0, 2)
	return b.MustBuild(), q.MustBuild()
}

// kernelCalls runs a profiled enumeration of (data, query) and returns
// the per-kernel call totals, so fixtures can assert which kernel the
// adaptive selector actually exercised.
func kernelCalls(t *testing.T, data, query *graph.Graph) map[string]int64 {
	t.Helper()
	tree, err := order.Preprocess(data, query, order.Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	collector := prof.New()
	ix := ceci.Build(data, tree, ceci.Options{Profile: collector})
	NewMatcher(ix, Options{Workers: 1, Profile: collector}).Count()
	return collector.Snapshot().FunnelTotals()
}

// TestEnumerationStepZeroAlloc proves the steady-state enumeration step —
// the symmetry bounds, the bounded CandidatesFor against the frozen flat
// index, setops.IntersectK through the per-depth scratch, and the
// word-packed injectivity bitmap — performs zero heap allocations once a
// worker's buffers are warm. This is the contract the arena-backed index
// exists to provide; any regression (a closure capture, a map lookup that
// boxes, a scratch slice that stopped being reused) fails here before it
// shows up in benchmarks.
func TestEnumerationStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	cases := []struct {
		name        string
		data, query *graph.Graph
		wantKernel  string // kernel that must fire for this fixture ("" = any)
	}{
		{"fig1", gen.Fig1Data(), gen.Fig1Query(), ""},
		{"random-pair-7", nil, nil, ""},
		// Dense clique: gap-1 candidate lists force the bitset-chunked
		// kernel, proving its chunk-builder reuse is allocation-free.
		{"dense-bitset", denseClique(48), gen.QG3(), "bitset"},
		// Hub skew on a 4-clique query: enumeration intersects a huge hub
		// adjacency against tiny leaf adjacencies, a >16:1 ratio that
		// forces the gallop kernel.
		{"skew-gallop", hubTriangles(600), gen.QG3(), "gallop"},
		// Labeled triangle query over labeled hubs and sparse leaves:
		// comparably sized, sparse but clustered leaf lists drive the
		// probe kernel. The query has no automorphisms, so symmetry
		// breaking cannot shrink the lists into another kernel's range.
		{"hub-probe", nil, nil, "probe"},
	}
	cases[1].data, cases[1].query = gen.RandomPair(7)
	cases[4].data, cases[4].query = labeledHubTriangles(8, 300, 40)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantKernel != "" {
				totals := kernelCalls(t, tc.data, tc.query)
				if totals["enum_kernel_"+tc.wantKernel+"_calls"] == 0 {
					t.Fatalf("fixture did not drive the %s kernel: %v", tc.wantKernel, totals)
				}
			}
			tree, err := order.Preprocess(tc.data, tc.query, order.Options{})
			if err != nil {
				t.Fatalf("Preprocess: %v", err)
			}
			ix := ceci.Build(tc.data, tree, ceci.Options{})
			if !ix.Frozen() {
				t.Fatal("Build did not freeze the index")
			}
			m := NewMatcher(ix, Options{Workers: 1, Strategy: workload.FGD})
			units := m.schedule()
			if units.Len() == 0 {
				t.Skip("no work units for this pair")
			}
			var count int64
			ctl := &control{fn: func([]graph.VertexID) bool {
				count++
				return true
			}}
			s := newSearcher(m, ctl)
			pass := func() {
				for i := 0; i < units.Len(); i++ {
					s.runUnit(units.Unit(i))
				}
			}
			pass() // warm the per-depth intersection scratch
			if count == 0 {
				t.Skip("pair has no embeddings; nothing steady-state to measure")
			}
			if avg := testing.AllocsPerRun(20, pass); avg != 0 {
				t.Errorf("enumeration pass allocates %.1f times, want 0", avg)
			}
		})
	}
}
