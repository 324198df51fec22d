package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ceci/internal/obs"
	"ceci/internal/telemetry"
)

// QueryzResponse is the wire form of GET /queryz: the flight recorder's
// view of recent and slowest queries.
type QueryzResponse struct {
	// Total counts every query ever recorded, including those evicted
	// from the ring.
	Total uint64 `json:"total"`
	// Recent lists retained queries, newest first.
	Recent []obs.QueryRecord `json:"recent"`
	// Slowest lists the K slowest queries ever, slowest first.
	Slowest []obs.QueryRecord `json:"slowest"`
}

// MountIntrospection registers the read-only debug routes that every
// query server (a ceciserve engine, a ceciroute router) shares:
//
//	GET /queryz             flight recorder: recent + slowest queries
//	                        (?format=text for an aligned table;
//	                        ?limit=N caps each list, ?min_ms=D keeps
//	                        only queries at least that slow; 400 on
//	                        malformed values)
//	GET /tracez/{traceID}   a sampled query's span tree as Chrome
//	                        trace_event JSON (?format=jsonl for the
//	                        compact per-span JSONL form)
//	GET /statz              telemetry hub: SLO burn state, per-class
//	                        costs, time-series rollups (?format=text)
//	GET /dashz              self-contained HTML dashboard over /statz
//
// /statz and /dashz are mounted only when hub is non-nil. When reg is
// non-nil its telemetry routes (/metrics, /metrics.json, /trace,
// /debug/pprof/) are mounted as the "/" fallback.
func MountIntrospection(mux *http.ServeMux, flight *obs.FlightRecorder, hub *telemetry.Hub, reg *obs.Registry) {
	in := introspection{flight: flight, hub: hub}
	mux.HandleFunc("GET /queryz", in.queryz)
	mux.HandleFunc("GET /tracez/{traceID}", in.tracez)
	if hub != nil {
		mux.HandleFunc("GET /statz", in.statz)
		mux.HandleFunc("GET /dashz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			fmt.Fprint(w, telemetry.DashzHTML)
		})
	}
	if reg != nil {
		mux.Handle("/", reg.Handler())
	}
}

// introspection is the state the shared debug routes read.
type introspection struct {
	flight *obs.FlightRecorder
	hub    *telemetry.Hub
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// queryzFilters are the /queryz list filters parsed from the URL.
type queryzFilters struct {
	limit int           // max records per list; 0 = unlimited
	minMS time.Duration // keep only queries at least this slow
}

// parseQueryzFilters validates ?limit= and ?min_ms=. Both are optional;
// negative or non-numeric values are rejected.
func parseQueryzFilters(q url.Values) (queryzFilters, error) {
	var f queryzFilters
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q: want a non-negative integer", s)
		}
		f.limit = n
	}
	if s := q.Get("min_ms"); s != "" {
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
			return f, fmt.Errorf("bad min_ms %q: want a non-negative number", s)
		}
		f.minMS = time.Duration(ms * float64(time.Millisecond))
	}
	return f, nil
}

// apply filters one record list (order preserved).
func (f queryzFilters) apply(recs []obs.QueryRecord) []obs.QueryRecord {
	if f.minMS > 0 {
		kept := recs[:0]
		for _, r := range recs {
			if time.Duration(r.TotalUS)*time.Microsecond >= f.minMS {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if f.limit > 0 && len(recs) > f.limit {
		recs = recs[:f.limit]
	}
	return recs
}

// queryz serves the flight recorder: JSON by default, an aligned
// text table with ?format=text. ?limit= and ?min_ms= filter both lists.
func (in introspection) queryz(w http.ResponseWriter, r *http.Request) {
	f, err := parseQueryzFilters(r.URL.Query())
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	recent := f.apply(in.flight.Recent())
	slowest := f.apply(in.flight.Slowest())
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obs.RecordsText(recent, slowest))
		return
	}
	WriteJSON(w, http.StatusOK, QueryzResponse{
		Total:   in.flight.Total(),
		Recent:  recent,
		Slowest: slowest,
	})
}

// tracez serves one query's span tree by trace ID: Chrome
// trace_event JSON by default (load in chrome://tracing or Perfetto),
// the compact per-span JSONL form with ?format=jsonl.
func (in introspection) tracez(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceID")
	rec, ok := in.flight.Find(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": "trace " + id + " not found (evicted, or never ran here)"})
		return
	}
	if len(rec.Spans) == 0 {
		WriteJSON(w, http.StatusNotFound, map[string]string{"error": "trace " + id + " was not sampled: no spans recorded"})
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		obs.WriteSpanJSONL(w, rec.Spans)
		return
	}
	doc, err := obs.ChromeTrace(rec.Spans)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// statz serves the telemetry hub's full view: SLO burn state,
// per-class costs, and time-series rollups. JSON by default,
// ?format=text for aligned tables.
func (in introspection) statz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, in.hub.StatzText())
		return
	}
	b, err := in.hub.StatzJSON()
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
