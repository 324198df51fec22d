package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/service"
	"ceci/internal/shard"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
)

// server is one loopback HTTP listener serving a handler.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener and its connections and waits for Serve to
// return.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// stack is the serving stack under test: one engine behind HTTP, or a
// router over three shard engines, all in this process on loopback.
type stack struct {
	data    *graph.Graph
	parts   []*shard.Partition
	engines []*service.Engine
	hubs    []*telemetry.Hub
	servers []*server // one per engine
	router  *shard.Router
	front   *server         // the router's listener (fleet only)
	fanout  *http.Transport // the router's connections to its shards
	url     string          // where clients send queries

	genTime, splitTime time.Duration
}

// engineOptions mirrors ceciserve's flag defaults (one worker per
// query, planner off, telemetry on), with the workload's cache budget
// and span recording off. It returns the hub to start and stop.
func engineOptions(cacheBytes int64, sc *service.ShardConfig) (service.Options, *telemetry.Hub) {
	hub := telemetry.NewHub(telemetry.Options{
		SampleInterval: 10 * time.Second,
		SLO: telemetry.SLOConfig{
			LatencyTarget:         500 * time.Millisecond,
			LatencyObjective:      0.99,
			AvailabilityObjective: 0.999,
		},
	})
	return service.Options{
		QueueDepth:     64,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		MaxLimit:       10000,
		CacheBytes:     cacheBytes,
		Workers:        1,
		Order:          order.BFSOrder,
		Registry:       obs.NewRegistry(),
		Tracer:         obs.NewTracer(obs.TracerOptions{}),
		TraceSample:    -1,
		Stats:          &stats.Counters{},
		Telemetry:      hub,
		Shard:          sc,
	}, hub
}

// startStack generates the data graph, partitions it for a fleet,
// starts every engine, shard and router on loopback and waits until
// the router reports ready. tap, when non-nil, wraps every query
// handler with timing middleware. The caller warms the caches and
// closes the stack.
func startStack(w *workload, tap *tap) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	t0 := time.Now()
	st.data = w.data()
	st.genTime = time.Since(t0)

	if !w.fleet {
		opts, hub := engineOptions(w.cacheBytes, nil)
		if err := st.addEngine(opts, hub, tap.wrapper(-1, "service.handler")); err != nil {
			return st, err
		}
		st.url = st.servers[0].url
		return st, nil
	}

	t1 := time.Now()
	st.parts, err = shard.Split(st.data, shard.PartitionOptions{Shards: shards, Radius: haloRadius})
	if err != nil {
		return st, fmt.Errorf("partition: %w", err)
	}
	st.splitTime = time.Since(t1)
	urls := make([][]string, len(st.parts))
	for i, p := range st.parts {
		opts, hub := engineOptions(w.cacheBytes, &service.ShardConfig{
			ID: p.ID, Shards: p.Shards, Radius: p.Radius,
			Globals: p.Globals, OwnedLocals: p.OwnedLocals,
		})
		if err := st.addEngine(opts, hub, tap.wrapper(i, "shard.handler")); err != nil {
			return st, err
		}
		urls[i] = []string{st.servers[i].url}
	}

	st.fanout = http.DefaultTransport.(*http.Transport).Clone()
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Start()
	st.hubs = append(st.hubs, hub)
	st.router, err = shard.NewRouter(shard.RouterOptions{
		Shards:      urls,
		Radius:      haloRadius,
		Tracer:      obs.NewTracer(obs.TracerOptions{}),
		TraceSample: -1,
		Registry:    obs.NewRegistry(),
		Telemetry:   hub,
		HTTPClient:  &http.Client{Transport: st.fanout},
	})
	if err != nil {
		return st, fmt.Errorf("router: %w", err)
	}
	st.router.Start()
	if err := waitReady(st.router, 10*time.Second); err != nil {
		return st, err
	}
	if st.front, err = serve(tap.wrapper(-1, "route.handler")(st.router.Handler())); err != nil {
		return st, err
	}
	st.url = st.front.url
	return st, nil
}

// addEngine starts one engine and its hub and serves its handler,
// wrapped by wrap.
func (st *stack) addEngine(opts service.Options, hub *telemetry.Hub, wrap func(http.Handler) http.Handler) error {
	hub.Start()
	st.hubs = append(st.hubs, hub)
	var data *graph.Graph
	if opts.Shard != nil {
		data = st.parts[opts.Shard.ID].Graph
	} else {
		data = st.data
	}
	eng := service.New(data, opts)
	st.engines = append(st.engines, eng)
	s, err := serve(wrap(eng.Handler()))
	if err != nil {
		return err
	}
	st.servers = append(st.servers, s)
	return nil
}

// waitReady polls the router until every shard has answered a
// readiness probe.
func waitReady(rt *shard.Router, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !rt.Ready() {
		select {
		case <-ctx.Done():
			return errors.New("router never became ready")
		case <-tick.C:
		}
	}
	return nil
}

// cacheTotals sums the cache and build counters of every engine.
func (st *stack) cacheTotals() (c service.CacheStats, builds int64) {
	for _, e := range st.engines {
		s := e.CacheStats()
		c.UsedBytes += s.UsedBytes
		c.Hits += s.Hits
		c.Misses += s.Misses
		c.Evictions += s.Evictions
		builds += e.Builds()
	}
	return c, builds
}

// close stops the router, every server and every hub, front first.
func (st *stack) close() {
	if st.front != nil {
		st.front.close()
	}
	if st.router != nil {
		st.router.Stop()
	}
	for _, s := range st.servers {
		s.close()
	}
	if st.fanout != nil {
		st.fanout.CloseIdleConnections()
	}
	for _, h := range st.hubs {
		h.Stop()
	}
}
