package cluster

import (
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// TestDistributePivotsAssignsEachOnce: whatever the mode, machine count
// or co-location setting, every root candidate lands on exactly one
// machine — the partition the simulated schedule's correctness rests on.
func TestDistributePivotsAssignsEachOnce(t *testing.T) {
	data, query := gen.Kronecker(9, 8, 13), gen.QG2()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var pivots []graph.VertexID
	order.ForEachCandidate(data, query, tree.Root, func(v graph.VertexID) { pivots = append(pivots, v) })
	for _, machines := range []int{1, 3, 8} {
		for _, cfg := range []Config{
			{Machines: machines, Mode: Replicated},
			{Machines: machines, Mode: Replicated, Jaccard: true},
			{Machines: machines, Mode: SharedStorage, Jaccard: true}, // Jaccard ignored off-replica
		} {
			if err := cfg.defaults(); err != nil {
				t.Fatal(err)
			}
			parts := distributePivots(data, pivots, cfg)
			seen := make(map[graph.VertexID]int, len(pivots))
			for _, p := range parts {
				for _, v := range p {
					seen[v]++
				}
			}
			if len(parts) != machines || len(seen) != len(pivots) {
				t.Fatalf("%+v: %d parts over %d vertices, want %d over %d pivots",
					cfg, len(parts), len(seen), machines, len(pivots))
			}
			for _, v := range pivots {
				if seen[v] != 1 {
					t.Fatalf("%+v: pivot %d assigned %d times", cfg, v, seen[v])
				}
			}
		}
	}
}
