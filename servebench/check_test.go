package main

import (
	"strings"
	"testing"

	"ceci/internal/graph"
)

// checkFixture is a labeled path 0-1-2-3 plus edge 0-2, and a labeled
// triangle query embedded at (0,1,2).
func checkFixture(t *testing.T) (data, query *graph.Graph) {
	t.Helper()
	db := graph.NewBuilder(4)
	for v, l := range []graph.Label{1, 2, 3, 3} {
		db.SetLabel(graph.VertexID(v), l)
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		db.AddEdge(e[0], e[1])
	}
	qb := graph.NewBuilder(3)
	for v, l := range []graph.Label{1, 2, 3} {
		qb.SetLabel(graph.VertexID(v), l)
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}} {
		qb.AddEdge(e[0], e[1])
	}
	return db.MustBuild(), qb.MustBuild()
}

func TestCheckEmbedding(t *testing.T) {
	data, query := checkFixture(t)
	for _, tc := range []struct {
		name string
		emb  []graph.VertexID
		want string // substring of the error; "" = valid
	}{
		{"valid", []graph.VertexID{0, 1, 2}, ""},
		{"corrupted vertex", []graph.VertexID{0, 3, 2}, "without that label"},
		{"out of range", []graph.VertexID{0, 1, 9}, "out-of-range"},
		{"short", []graph.VertexID{0, 1}, "has 2 vertices"},
	} {
		err := checkEmbedding(data, query, tc.emb)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckEmbeddingUnlabeled isolates the edge and injectivity checks
// on an unlabeled star 0-1, 0-2 and a path query 0-1-2, where every
// label matches.
func TestCheckEmbeddingUnlabeled(t *testing.T) {
	db := graph.NewBuilder(3)
	db.AddEdge(0, 1)
	db.AddEdge(0, 2)
	qb := graph.NewBuilder(3)
	qb.AddEdge(0, 1)
	qb.AddEdge(1, 2)
	data, query := db.MustBuild(), qb.MustBuild()
	if err := checkEmbedding(data, query, []graph.VertexID{1, 0, 2}); err != nil {
		t.Fatalf("valid embedding: %v", err)
	}
	err := checkEmbedding(data, query, []graph.VertexID{0, 1, 2})
	if err == nil || !strings.Contains(err.Error(), "non-edge") {
		t.Errorf("error %v, want a non-edge", err)
	}
	err = checkEmbedding(data, query, []graph.VertexID{1, 0, 1})
	if err == nil || !strings.Contains(err.Error(), "both map to") {
		t.Errorf("error %v, want a repeated vertex", err)
	}
}

func TestCheckPageRejectsRepeats(t *testing.T) {
	data, query := checkFixture(t)
	if err := checkPage(data, query, [][]graph.VertexID{{0, 1, 2}}); err != nil {
		t.Fatalf("valid page: %v", err)
	}
	err := checkPage(data, query, [][]graph.VertexID{{0, 1, 2}, {0, 1, 2}})
	if err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("error %v, want a repeat", err)
	}
}
