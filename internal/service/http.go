package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ceci/internal/buildinfo"
	"ceci/internal/graph"
	"ceci/internal/obs"
)

// QueryRequest is the wire form of POST /query. The pattern graph comes
// either as .lg text ("query") or inline ("labels" + "edges"); exactly
// one form must be present.
type QueryRequest struct {
	// Query is the pattern in the labeled-graph text format
	// ("t n m", "v id label", "e u v" lines).
	Query string `json:"query,omitempty"`
	// Labels gives per-vertex labels for the inline form; vertex i has
	// label Labels[i].
	Labels []uint32 `json:"labels,omitempty"`
	// Edges lists undirected edges [u, v] over the inline vertices.
	Edges [][2]uint32 `json:"edges,omitempty"`

	Limit     int64 `json:"limit,omitempty"`
	Offset    int64 `json:"offset,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	CountOnly bool  `json:"count_only,omitempty"`
}

// QueryResponse is the wire form of a query result. Deadline-exceeded
// responses (HTTP 504) still carry the partial count with Partial=true.
type QueryResponse struct {
	Count      int64              `json:"count"`
	Embeddings [][]graph.VertexID `json:"embeddings,omitempty"`
	CacheHit   bool               `json:"cache_hit"`
	Partial    bool               `json:"partial,omitempty"`
	BuildMS    float64            `json:"build_ms"`
	EnumMS     float64            `json:"enum_ms"`
	// TraceID keys this query's record in /queryz and, when the query
	// was sampled, its span tree at /tracez/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
	// QueryHash is the query's isomorphism-class identity.
	QueryHash string `json:"query_hash,omitempty"`
	Error     string `json:"error,omitempty"`
}

// HealthResponse is the wire form of GET /healthz. Liveness and
// readiness are distinct: a process that answers at all is live, but
// Ready is true only once the resident graph (and shard partition, in
// shard mode) is loaded and queries can be served. `GET /healthz?ready=1`
// returns 503 until then, so routers and smoke tests don't race startup.
type HealthResponse struct {
	Status       string         `json:"status"`
	Ready        bool           `json:"ready"`
	DataVertices int            `json:"data_vertices"`
	DataEdges    int            `json:"data_edges"`
	DataLabels   int            `json:"data_labels"`
	Build        buildinfo.Info `json:"build"`
	// Shard identity, present in shard mode only.
	ShardID     *int `json:"shard_id,omitempty"`
	ShardCount  int  `json:"shard_count,omitempty"`
	ShardRadius int  `json:"shard_radius,omitempty"`
	ShardOwned  int  `json:"shard_owned,omitempty"`
}

// Handler returns the engine's HTTP API:
//
//	POST /query    run a match request (JSON in/out; accepts and emits
//	               W3C traceparent headers)
//	GET  /healthz  liveness + data graph shape + build identity
//	GET  /cachez   index cache statistics
//
// plus the shared introspection routes of MountIntrospection (/queryz,
// /tracez/{traceID}, /statz and /dashz with Options.Telemetry, and the
// Registry's metric routes as the fallback).
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", e.handleQuery)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /cachez", e.handleCachez)
	MountIntrospection(mux, e.flight, e.opts.Telemetry, e.opts.Registry)
	return mux
}

func (e *Engine) handleQuery(w http.ResponseWriter, r *http.Request) {
	var wire QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&wire); err != nil {
		WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	q, err := wire.Graph()
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: err.Error()})
		return
	}
	req := Request{
		Query:     q,
		Limit:     wire.Limit,
		Offset:    wire.Offset,
		Timeout:   time.Duration(wire.TimeoutMS) * time.Millisecond,
		CountOnly: wire.CountOnly,
	}
	// W3C trace-context ingress: a valid traceparent joins this query to
	// the caller's trace (keeping the caller's sampling decision); a
	// malformed or absent header restarts the trace, per the spec.
	ctx := r.Context()
	if tp := r.Header.Get("traceparent"); tp != "" {
		if tc, perr := obs.ParseTraceparent(tp); perr == nil {
			ctx = obs.ContextWithTrace(ctx, tc)
		}
	}
	resp, err := e.Query(ctx, req)
	wire2 := QueryResponse{}
	if resp != nil {
		// Server-Timing (phase breakdown plus SLO state): lets browsers
		// and clients see where the request's time went without parsing
		// the body.
		w.Header().Set("Server-Timing", serverTiming(e, resp))
		wire2 = QueryResponse{
			Count:      resp.Count,
			Embeddings: resp.Embeddings,
			CacheHit:   resp.CacheHit,
			Partial:    resp.Partial,
			BuildMS:    float64(resp.BuildTime) / float64(time.Millisecond),
			EnumMS:     float64(resp.EnumTime) / float64(time.Millisecond),
			TraceID:    resp.TraceID,
			QueryHash:  resp.QueryHash,
		}
		// Egress: the response traceparent names the request's root span,
		// so a calling service can stitch our subtree into its own trace.
		if resp.Trace.Valid() {
			w.Header().Set("traceparent", resp.Trace.Traceparent())
		}
	}
	status := statusFor(err)
	if err != nil {
		wire2.Error = err.Error()
		if status == 429 {
			w.Header().Set("Retry-After", "1")
		}
		if status == 504 {
			wire2.Partial = true
		}
	}
	WriteJSON(w, status, wire2)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// An engine only exists with its graph resident, so it is always
	// ready; the pre-load 503 phase is served by the startup gate in
	// cmd/ceciserve before this handler is swapped in.
	h := HealthResponse{
		Status:       "ok",
		Ready:        true,
		DataVertices: e.data.NumVertices(),
		DataEdges:    e.data.NumEdges(),
		DataLabels:   e.data.NumLabels(),
		Build:        buildinfo.Get(),
	}
	if sc := e.opts.Shard; sc != nil {
		id := sc.ID
		h.ShardID = &id
		h.ShardCount = sc.Shards
		h.ShardRadius = sc.Radius
		h.ShardOwned = len(sc.OwnedLocals)
	}
	WriteJSON(w, http.StatusOK, h)
}

// serverTiming renders the Server-Timing response header: the query's
// phase durations (queue, build, enum, total) plus the current SLO
// state ("ok" or "breach").
func serverTiming(e *Engine, resp *Response) string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	total := resp.QueueWait + resp.BuildTime + resp.EnumTime
	s := fmt.Sprintf("queue;dur=%.1f, build;dur=%.1f, enum;dur=%.1f, total;dur=%.1f",
		ms(resp.QueueWait), ms(resp.BuildTime), ms(resp.EnumTime), ms(total))
	if h := e.opts.Telemetry; h != nil {
		state := "ok"
		if h.SLO().State().Breach() {
			state = "breach"
		}
		s += `, slo;desc="` + state + `"`
	}
	return s
}

func (e *Engine) handleCachez(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, e.cache.stats())
}

// Graph materializes the pattern graph from whichever wire form is set.
// Every error wraps ErrBadQuery. The shard router calls it too, to
// inspect the query (radius guard) before scattering it across the
// fleet.
func (q *QueryRequest) Graph() (*graph.Graph, error) {
	hasText := q.Query != ""
	hasInline := len(q.Labels) > 0
	switch {
	case hasText && hasInline:
		return nil, fmt.Errorf("%w: give either query text or labels/edges, not both", ErrBadQuery)
	case hasText:
		if err := checkTextIDs(q.Query); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		g, err := graph.LoadLabeled(strings.NewReader(q.Query))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return g, nil
	case hasInline:
		n := len(q.Labels)
		b := graph.NewBuilder(n)
		for v, l := range q.Labels {
			if l > graph.MaxLabelValue {
				return nil, fmt.Errorf("%w: vertex %d label %d out of range [0,%d]", ErrBadQuery, v, l, graph.MaxLabelValue)
			}
			b.SetLabel(graph.VertexID(v), l)
		}
		for _, e := range q.Edges {
			if int(e[0]) >= n || int(e[1]) >= n {
				return nil, fmt.Errorf("%w: edge [%d,%d] references vertex >= %d", ErrBadQuery, e[0], e[1], n)
			}
			b.AddEdge(e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("%w: no query given", ErrBadQuery)
	}
}

// checkTextIDs rejects .lg query text that names a vertex id at or
// beyond the text's own length, before the parser allocates for it.
// Every vertex of a connected pattern appears on some line, so a
// connected query has fewer vertices than its text has bytes; a larger
// id can only describe a pattern with isolated vertices, while
// allocating for it (a single "v 4000000000 0" line) would exhaust the
// server's memory.
func checkTextIDs(text string) error {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		var ids []string
		switch {
		case len(f) >= 3 && f[0] == "v":
			ids = f[1:2]
		case len(f) >= 3 && f[0] == "e":
			ids = f[1:3]
		}
		for _, s := range ids {
			if id, err := strconv.ParseUint(s, 10, 32); err == nil && id >= uint64(len(text)) {
				return fmt.Errorf("vertex id %d out of range for a %d-byte query", id, len(text))
			}
		}
	}
	return nil
}
