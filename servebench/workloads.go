package main

import (
	"encoding/json"
	"fmt"

	"ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/service"
	"ceci/internal/verify"
)

// request is one query of a workload's fixed sequence.
type request struct {
	class int          // index into the workload's class list; -1 when every request is its own class
	query *graph.Graph // the pattern as sent
	wire  service.QueryRequest
	body  []byte // wire, JSON-encoded once
	// expect is the class's single-node embedding count, or -1 when the
	// benchmark does not compute it (cold-build).
	expect int64
}

// workload is one traffic mix: a data graph, the serving topology, and
// a seeded request sequence replayed whole, pass after pass.
type workload struct {
	name string
	// fleet serves through the router over three partitioned shards
	// instead of one engine.
	fleet bool
	// cacheBytes is each engine's index cache budget.
	cacheBytes int64
	// passLen is how many requests one pass of the sequence holds.
	passLen int
	// data builds the data graph; it is deterministic and seed-free, so
	// every seed queries the same graph.
	data func() *graph.Graph
	// inputs draws a pass of n requests and the warm-up requests from
	// the seed.
	inputs func(data *graph.Graph, seed int64, n int) (seq, warm []request, err error)
}

const (
	shards      = 3
	haloRadius  = 1    // the fleet's halo; clique queries have anchor eccentricity 1
	servedLimit = 2000 // fleet-page page size
	coldLimit   = 100  // cold-build page size
	coldSize    = 6    // cold-build query vertices
	coldWarm    = 32   // cold-build warm-up classes, disjoint from the sequence
)

// ytGraph is the yt_s substitute of internal/datasets (Chung-Lu, 30k
// vertices, average degree 5, γ 2.2), generated afresh on every call so
// that set-up time includes generation.
func ytGraph() *graph.Graph { return gen.ChungLu(30000, 5, 2.2, 109) }

// labeledGraph is cold-build's data graph: Chung-Lu, 30k vertices,
// average degree 8, γ 2.3, 8 uniformly random labels.
func labeledGraph() *graph.Graph {
	return gen.WithRandomLabels(gen.ChungLu(30000, 8, 2.3, 111), 8, 211)
}

var workloads = []*workload{
	{
		name:       "hot-count",
		cacheBytes: 256 << 20,
		passLen:    30,
		data:       ytGraph,
		inputs: func(data *graph.Graph, seed int64, n int) ([]request, []request, error) {
			return classInputs(data, seed, []*graph.Graph{gen.QG1(), gen.QG3(), gen.QG5()}, n, true, 0)
		},
	},
	{
		name:       "cold-build",
		cacheBytes: 8 << 20,
		passLen:    400,
		data:       labeledGraph,
		inputs:     coldInputs,
	},
	{
		name:       "fleet-page",
		fleet:      true,
		cacheBytes: 256 << 20,
		passLen:    120,
		data:       ytGraph,
		inputs: func(data *graph.Graph, seed int64, n int) ([]request, []request, error) {
			return classInputs(data, seed, []*graph.Graph{gen.QG1(), gen.QG3()}, n, false, servedLimit)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// classInputs draws n requests spread evenly over the given query
// classes, shuffled, each a fresh random vertex permutation of its
// class. Every class's single-node count is computed here, once, as
// the answer key. Warm-up sends each class once with limit 1, which
// builds and caches its index.
func classInputs(data *graph.Graph, seed int64, classes []*graph.Graph, n int, countOnly bool, limit int64) (seq, warm []request, err error) {
	expect := make([]int64, len(classes))
	for c, q := range classes {
		if expect[c], err = ceci.Count(data, q, nil); err != nil {
			return nil, nil, fmt.Errorf("reference count of class %d: %w", c, err)
		}
	}
	rng := gen.NewRNG(seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i % len(classes)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, c := range order {
		q, _ := gen.PermuteVertices(classes[c], rng)
		seq = append(seq, newRequest(c, q, countOnly, limit, expect[c]))
	}
	for c, q := range classes {
		warm = append(warm, newRequest(c, q, false, 1, expect[c]))
	}
	return seq, warm, nil
}

// coldInputs draws DFS-grown 6-vertex queries (gen.QuerySet) and keeps
// the first of each isomorphism class, so every request of a pass
// builds a new index; the warm-up classes come from the same draw and
// never recur in the sequence.
func coldInputs(data *graph.Graph, seed int64, n int) (seq, warm []request, err error) {
	need := n + coldWarm
	seen := make(map[string]bool, need)
	for _, q := range gen.QuerySet(data, coldSize, 2*need, seed) {
		key, _ := verify.CanonicalGraph(q)
		if seen[key] {
			continue
		}
		seen[key] = true
		r := newRequest(-1, q, false, coldLimit, -1)
		if len(warm) < coldWarm {
			warm = append(warm, r)
		} else if len(seq) < n {
			seq = append(seq, r)
		}
	}
	if len(seq) < n {
		return nil, nil, fmt.Errorf("cold-build: only %d distinct query classes drawn, need %d", len(seq)+len(warm), need)
	}
	return seq, warm, nil
}

// newRequest builds the inline wire form of q.
func newRequest(class int, q *graph.Graph, countOnly bool, limit, expect int64) request {
	wire := service.QueryRequest{Limit: limit, CountOnly: countOnly}
	for v := 0; v < q.NumVertices(); v++ {
		wire.Labels = append(wire.Labels, uint32(q.Label(graph.VertexID(v))))
	}
	q.Edges(func(u, v graph.VertexID) bool {
		wire.Edges = append(wire.Edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	body, err := json.Marshal(wire)
	if err != nil {
		panic(err) // plain ints and slices always marshal
	}
	return request{class: class, query: q, wire: wire, body: body, expect: expect}
}
