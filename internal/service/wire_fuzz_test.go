package service

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ceci/internal/graph"
)

// FuzzQueryRequestGraph fuzzes the POST /query wire decode that the
// engine and the shard router share. Whatever the client sends, the
// decode must not panic; a success in the inline form is a graph with
// exactly len(Labels) vertices carrying those labels and edges; every
// failure wraps ErrBadQuery, so both servers answer it with 400.
//
// The inline form is drawn from bytes: one label per byte of labels,
// one edge per byte pair of edges.
func FuzzQueryRequestGraph(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.lg"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text), []byte(nil), []byte(nil))
	}
	for _, seed := range []struct {
		text          string
		labels, edges []byte
	}{
		{"", []byte{1, 2, 3}, []byte{0, 1, 1, 2}},        // labeled path
		{"", []byte{0, 0, 0}, []byte{0, 1, 1, 2, 2, 0}},  // triangle
		{"", []byte{7}, nil},                             // single vertex
		{"", []byte{1, 2}, []byte{0, 5}},                 // edge out of range
		{"", []byte{1, 2}, []byte{0, 0, 0, 1}},           // self-loop
		{"", []byte{1, 2}, []byte{0, 1, 1, 0}},           // repeated edge
		{"", []byte{255, 255}, []byte{0, 1}},             // label past the cap
		{"", nil, []byte{0, 1}},                          // edges without labels
		{"", nil, nil},                                   // no query at all
		{"t 2 1\nv 0 1\nv 1 2\ne 0 1\n", []byte{1}, nil}, // both forms
		{"v 4000000000 0\n", nil, nil},                   // huge sparse id
		{"t 3 1\nv 0 0\ne 0 7\n", nil, nil},              // id past the header
		{"e 0 1\ne 1 0\n", nil, nil},                     // duplicate edge
		{"x 1 2\n", nil, nil},                            // unknown record
	} {
		f.Add(seed.text, seed.labels, seed.edges)
	}
	f.Fuzz(func(t *testing.T, text string, labels, edges []byte) {
		req := QueryRequest{Query: text}
		for _, b := range labels {
			l := uint32(b)
			if b == 255 {
				l = 1<<32 - 1
			}
			req.Labels = append(req.Labels, l)
		}
		for i := 0; i+1 < len(edges); i += 2 {
			req.Edges = append(req.Edges, [2]uint32{uint32(edges[i]), uint32(edges[i+1])})
		}
		g, err := req.Graph()
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("decode error does not wrap ErrBadQuery: %v", err)
			}
			return
		}
		if g == nil {
			t.Fatal("nil graph without an error")
		}
		if text != "" || len(req.Labels) == 0 {
			return
		}
		if g.NumVertices() != len(req.Labels) {
			t.Fatalf("inline form: %d vertices, want %d", g.NumVertices(), len(req.Labels))
		}
		for v, l := range req.Labels {
			if got := g.Label(graph.VertexID(v)); got != l {
				t.Fatalf("vertex %d: label %d, want %d", v, got, l)
			}
		}
		for _, e := range req.Edges {
			if e[0] != e[1] && !g.HasEdge(e[0], e[1]) {
				t.Fatalf("edge %v lost", e)
			}
		}
	})
}
