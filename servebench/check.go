package main

import (
	"fmt"

	"ceci/internal/graph"
)

// checkEmbedding reports why emb is not an embedding of query in data,
// or nil when it is one: one data vertex per query vertex, every data
// vertex in range and carrying its query vertex's label, every query
// edge present in data, and no data vertex used twice.
func checkEmbedding(data, query *graph.Graph, emb []graph.VertexID) error {
	n := query.NumVertices()
	if len(emb) != n {
		return fmt.Errorf("embedding has %d vertices, query has %d", len(emb), n)
	}
	for u, v := range emb {
		if int(v) >= data.NumVertices() {
			return fmt.Errorf("query vertex %d maps to out-of-range data vertex %d", u, v)
		}
		for _, l := range query.Labels(graph.VertexID(u)) {
			if !data.HasLabel(v, l) {
				return fmt.Errorf("query vertex %d (label %d) maps to data vertex %d without that label", u, l, v)
			}
		}
		for w := 0; w < u; w++ {
			if emb[w] == v {
				return fmt.Errorf("query vertices %d and %d both map to data vertex %d", w, u, v)
			}
		}
	}
	var err error
	query.Edges(func(a, b graph.VertexID) bool {
		if !data.HasEdge(emb[a], emb[b]) {
			err = fmt.Errorf("query edge (%d,%d) maps to non-edge (%d,%d)", a, b, emb[a], emb[b])
			return false
		}
		return true
	})
	return err
}

// checkPage validates every embedding of a materialized page and that
// no embedding repeats; it returns the first problem found.
func checkPage(data, query *graph.Graph, page [][]graph.VertexID) error {
	seen := make(map[string]struct{}, len(page))
	key := make([]byte, 0, 4*query.NumVertices())
	for i, emb := range page {
		if err := checkEmbedding(data, query, emb); err != nil {
			return fmt.Errorf("embedding %d: %w", i, err)
		}
		key = key[:0]
		for _, v := range emb {
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if _, dup := seen[string(key)]; dup {
			return fmt.Errorf("embedding %d repeats an earlier one", i)
		}
		seen[string(key)] = struct{}{}
	}
	return nil
}
