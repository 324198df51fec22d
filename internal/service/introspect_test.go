package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ceci/internal/gen"
	"ceci/internal/obs"
	"ceci/internal/service"
	"ceci/internal/shard"
	"ceci/internal/telemetry"
)

// introspectionServers boots the two servers that share the debug
// surface — an engine, and a router over a one-shard fleet of the same
// data — each with its own tracer sampling at the given rate, telemetry
// hub and registry. It returns their base URLs by name.
func introspectionServers(t *testing.T, sample float64) map[string]string {
	t.Helper()
	data := gen.WithRandomLabels(gen.ErdosRenyi(200, 1000, 11), 4, 23)
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	opts := func() service.Options {
		return service.Options{
			Workers: 1, Tracer: obs.NewTracer(obs.TracerOptions{}), TraceSample: sample,
			Telemetry: telemetry.NewHub(telemetry.Options{}), Registry: obs.NewRegistry(),
		}
	}
	urls := map[string]string{"engine": serve(service.New(data, opts()).Handler())}

	parts, err := shard.Split(data, shard.PartitionOptions{Shards: 1, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, sopts := parts[0], opts()
	sopts.Shard = &service.ShardConfig{ID: p.ID, Shards: p.Shards, Radius: p.Radius,
		Globals: p.Globals, OwnedLocals: p.OwnedLocals}
	rt, err := shard.NewRouter(shard.RouterOptions{
		Shards: [][]string{{serve(service.New(p.Graph, sopts).Handler())}}, Radius: p.Radius,
		Tracer: obs.NewTracer(obs.TracerOptions{}), TraceSample: sample,
		Telemetry: telemetry.NewHub(telemetry.Options{}), Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	urls["router"] = serve(rt.Handler())
	for deadline := time.Now().Add(10 * time.Second); !rt.Ready(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("router never became ready")
		}
	}
	return urls
}

// runPathQueries sends n labeled 3-path queries and returns their trace ids.
func runPathQueries(t *testing.T, url string, n int) []string {
	t.Helper()
	client := service.NewClient(url, nil)
	wire := service.QueryRequest{Labels: []uint32{1, 2, 3}, Edges: [][2]uint32{{0, 1}, {1, 2}}}
	var ids []string
	for i := 0; i < n; i++ {
		resp, err := client.Query(context.Background(), wire)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.TraceID)
	}
	return ids
}

// get fetches url and returns status, Content-Type and body.
func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestQueryzFiltersHTTP exercises ?limit=, ?min_ms= and ?format=text on
// both servers, including the 400 on malformed values.
func TestQueryzFiltersHTTP(t *testing.T) {
	for name, url := range introspectionServers(t, 1) {
		t.Run(name, func(t *testing.T) {
			ids := runPathQueries(t, url, 3)
			for _, tc := range []struct {
				query                 string
				recent, slowest, code int
			}{
				{"", 3, 3, http.StatusOK},
				{"?limit=2", 2, 2, http.StatusOK},
				// An impossibly high floor empties both lists but keeps the total.
				{"?min_ms=3600000", 0, 0, http.StatusOK},
				{"?limit=-1", 0, 0, http.StatusBadRequest},
				{"?limit=abc", 0, 0, http.StatusBadRequest},
				{"?min_ms=-3", 0, 0, http.StatusBadRequest},
				{"?min_ms=NaN", 0, 0, http.StatusBadRequest},
			} {
				status, _, body := get(t, url+"/queryz"+tc.query)
				if status != tc.code {
					t.Fatalf("GET /queryz%s = %d, want %d: %s", tc.query, status, tc.code, body)
				}
				if status != http.StatusOK {
					continue
				}
				var qz service.QueryzResponse
				if err := json.Unmarshal([]byte(body), &qz); err != nil {
					t.Fatal(err)
				}
				if qz.Total != 3 || len(qz.Recent) != tc.recent || len(qz.Slowest) != tc.slowest {
					t.Fatalf("GET /queryz%s: total %d recent %d slowest %d, want 3/%d/%d",
						tc.query, qz.Total, len(qz.Recent), len(qz.Slowest), tc.recent, tc.slowest)
				}
			}
			status, ctype, body := get(t, url+"/queryz?format=text&limit=1")
			if status != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(body, ids[2]) {
				t.Fatalf("text form: %d %q, want the newest trace id %s:\n%s", status, ctype, ids[2], body)
			}
		})
	}
}

// TestTracezNotFoundHTTP: both servers answer 404 for a trace they never
// recorded and for a recorded query that was not sampled.
func TestTracezNotFoundHTTP(t *testing.T) {
	for name, url := range introspectionServers(t, -1) {
		t.Run(name, func(t *testing.T) {
			unsampled := runPathQueries(t, url, 1)[0]
			for id, want := range map[string]string{
				strings.Repeat("0", 31) + "1": "not found",
				unsampled:                     "not sampled",
			} {
				if status, _, body := get(t, url+"/tracez/"+id); status != http.StatusNotFound || !strings.Contains(body, want) {
					t.Fatalf("GET /tracez/%s = %d %s, want 404 %q", id, status, body, want)
				}
			}
		})
	}
}

// TestTelemetryRoutesHTTP: /statz (JSON and text), /dashz and the
// registry fallback answer the same way on both servers.
func TestTelemetryRoutesHTTP(t *testing.T) {
	for name, url := range introspectionServers(t, 1) {
		t.Run(name, func(t *testing.T) {
			runPathQueries(t, url, 2)
			var statz telemetry.Statz
			if _, _, body := get(t, url+"/statz"); json.Unmarshal([]byte(body), &statz) != nil || statz.Queries != 2 {
				t.Fatalf("/statz queries = %d, want 2:\n%.400s", statz.Queries, body)
			}
			for _, tc := range []struct{ path, ctype, want string }{
				{"/statz", "application/json", `"slo"`},
				{"/statz?format=text", "text/plain", "query classes"},
				{"/dashz", "text/html", "<!doctype html>"},
				{"/dashz", "text/html", "/statz"},
				{"/dashz", "text/html", "svg"},
				{"/metrics", "text/plain", "ceci_slo_latency_breach 0"},
			} {
				status, ctype, body := get(t, url+tc.path)
				if status != http.StatusOK || !strings.HasPrefix(ctype, tc.ctype) ||
					!strings.Contains(strings.ToLower(body), strings.ToLower(tc.want)) {
					t.Fatalf("GET %s = %d %q, want %s containing %q:\n%.400s",
						tc.path, status, ctype, tc.ctype, tc.want, body)
				}
			}
		})
	}
}
