package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	icec "ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/service"
	"ceci/internal/setops"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
	"ceci/internal/verify"
)

// tap is the traced run's timing middleware: it wraps the engine,
// shard and router query handlers, records a span and the wall time of
// each handler call, and keeps each shard's reply so its phase times
// can be read after the request. The client is a closed loop of one,
// so every call the tap sees between two requests belongs to the
// request in flight.
type tap struct {
	mu     sync.Mutex
	parent *obs.Span // the request in flight
	front  *obs.Span // the front handler's span while it runs
	legs   []leg
}

// leg is one handler call.
type leg struct {
	shard  int // -1 for the front handler (engine or router)
	wall   time.Duration
	timing string // Server-Timing header
	body   []byte // shard replies only
}

// wrapper returns middleware timing a handler's POST /query calls; a
// nil tap returns the handler unchanged.
func (t *tap) wrapper(shard int, name string) func(http.Handler) http.Handler {
	if t == nil {
		return func(h http.Handler) http.Handler { return h }
	}
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/query" {
				h.ServeHTTP(w, r)
				return
			}
			t.mu.Lock()
			parent := t.parent
			if shard >= 0 {
				parent = t.front
			}
			sp := parent.Child(name, obs.Int("shard", int64(shard)))
			if shard < 0 {
				t.front = sp
			}
			t.mu.Unlock()
			rec := &teeWriter{ResponseWriter: w, keep: shard >= 0}
			start := time.Now()
			h.ServeHTTP(rec, r)
			wall := time.Since(start)
			sp.End()
			t.mu.Lock()
			t.legs = append(t.legs, leg{shard: shard, wall: wall, timing: rec.Header().Get("Server-Timing"), body: rec.buf.Bytes()})
			t.mu.Unlock()
		})
	}
}

// begin makes sp the parent of the handler spans that follow.
func (t *tap) begin(sp *obs.Span) {
	t.mu.Lock()
	t.parent, t.front, t.legs = sp, nil, nil
	t.mu.Unlock()
}

// take returns the handler calls recorded since begin.
func (t *tap) take() []leg {
	t.mu.Lock()
	defer t.mu.Unlock()
	legs := t.legs
	t.legs = nil
	return legs
}

// teeWriter keeps a copy of the body it writes when keep is set.
type teeWriter struct {
	http.ResponseWriter
	keep bool
	buf  bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.buf.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// queueWait reads the queue phase from a Server-Timing header
// ("queue;dur=0.0, build;dur=...").
func queueWait(timing string) time.Duration {
	for _, part := range strings.Split(timing, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if ok && name == "queue" {
			ms, err := strconv.ParseFloat(dur, 64)
			if err == nil {
				return time.Duration(ms * float64(time.Millisecond))
			}
		}
	}
	return 0
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// layers collects the traced pass: per-request samples from the
// middleware and the replies, and the direct calls into each layer's
// public functions that replay the served work outside the request.
type layers struct {
	w      *workload
	seq    []request
	data   *graph.Graph
	tap    *tap
	tracer *obs.Tracer
	pass   *obs.Span
	req    *obs.Span

	mirror map[string]*icec.Index // indexes of recurring classes, kept as the server's cache keeps them

	// Time samples, over every traced pass.
	canon, preprocess, build, enumT []time.Duration
	serviceSelf, transport, queue   []time.Duration
	routeSelf, slowest              []time.Duration
	skew, allocKB                   []float64
	clientSum, namedSum             time.Duration
	respBytes, responses            int64

	// Exact counters, accumulated over every traced pass; first holds
	// them as they stood at the end of the first.
	counters      stats.Counters
	kernelCalls   map[string]int64 // by kernel name, from the enumerations' ledgers
	kernelScanned map[string]int64
	embedded      int64   // embeddings the direct enumerations produced
	indexSize     []int64 // PhysicalBytes of every index the direct calls built
	first         map[string]int64
}

func (l *layers) start(pass, i int) {
	if i == 0 {
		l.pass.End()
		l.pass = l.tracer.Start("pass", obs.Int("pass", int64(pass)))
	}
	l.req = l.pass.Child("request", obs.Int("seq", int64(i)))
	l.tap.begin(l.req)
}

func (l *layers) finish(pass, i int, rep *reply, wall time.Duration) {
	l.req.End()
	legs := l.tap.take()
	r := &l.seq[i]
	l.clientSum += wall
	l.respBytes += int64(rep.bytes)
	l.responses++

	// Critical-path phases: the engine's own, or the slowest shard's.
	var named, front time.Duration
	for _, lg := range legs {
		if lg.shard < 0 {
			front = lg.wall
		}
	}
	l.transport = append(l.transport, wall-front)
	if !l.w.fleet {
		q, b, e := queueWait(rep.timing), msDuration(rep.body.BuildMS), msDuration(rep.body.EnumMS)
		l.queue = append(l.queue, q)
		l.serviceSelf = append(l.serviceSelf, front-q-b-e)
		named = q + b + e
	} else {
		var slow, sum time.Duration
		var shardLegs int
		for _, lg := range legs {
			if lg.shard < 0 {
				continue
			}
			var body service.QueryResponse
			if err := json.Unmarshal(lg.body, &body); err != nil {
				continue // check() fails the request for the missing shard
			}
			q, b, e := queueWait(lg.timing), msDuration(body.BuildMS), msDuration(body.EnumMS)
			l.queue = append(l.queue, q)
			l.serviceSelf = append(l.serviceSelf, lg.wall-q-b-e)
			sum += lg.wall
			shardLegs++
			if lg.wall > slow {
				slow, named = lg.wall, q+b+e
			}
		}
		l.routeSelf = append(l.routeSelf, front-slow)
		l.slowest = append(l.slowest, slow)
		if shardLegs > 0 && sum > 0 {
			l.skew = append(l.skew, float64(slow)/(float64(sum)/float64(shardLegs)))
		}
	}
	canon := l.direct(i, r)
	l.namedSum += min(wall, named+canon)
	if pass == 0 && i == len(l.seq)-1 {
		l.first = l.exactCounters()
	}
}

// direct replays request i's server-side work through the layers'
// public functions — canonicalization, and on the first sight of a
// class preprocessing and index build, then enumeration — timing each
// in a span, and returns the canonicalization time.
func (l *layers) direct(i int, r *request) time.Duration {
	ctx := context.Background()
	sp := l.pass.Child("direct", obs.Int("seq", int64(i)))
	defer sp.End()

	csp := sp.Child("verify.CanonicalGraph")
	t0 := time.Now()
	key, _ := verify.CanonicalGraph(r.query)
	canon := time.Since(t0)
	csp.End()
	l.canon = append(l.canon, canon)

	ix := l.mirror[key]
	if ix == nil {
		psp := sp.Child("order.Preprocess")
		t0 = time.Now()
		tree, err := order.Preprocess(l.data, r.query, order.Options{ForcedRoot: -1, Heuristic: order.BFSOrder})
		l.preprocess = append(l.preprocess, time.Since(t0))
		psp.End()
		if err != nil {
			panic(fmt.Sprintf("preprocess of a served query: %v", err)) // the engine accepted it
		}
		bsp := sp.Child("ceci.BuildCtx")
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		// The index charges the enumeration's intersections to its Stats.
		ix, err = icec.BuildCtx(ctx, l.data, tree, icec.Options{Workers: 1, Stats: &l.counters})
		l.build = append(l.build, time.Since(t0))
		runtime.ReadMemStats(&m1)
		bsp.End()
		if err != nil {
			panic(fmt.Sprintf("build of a served query: %v", err))
		}
		l.allocKB = append(l.allocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		l.indexSize = append(l.indexSize, ix.PhysicalBytes())
		if r.class >= 0 {
			l.mirror[key] = ix
		}
	}

	led := telemetry.NewLedger()
	var limit int64
	if !r.wire.CountOnly {
		limit = r.wire.Limit
	}
	m := enum.NewMatcher(ix, enum.Options{Workers: 1, Limit: limit, Stats: &l.counters, Ledger: led})
	esp := sp.Child("enum.Matcher")
	t0 = time.Now()
	var n int64
	var err error
	if r.wire.CountOnly {
		n, err = m.CountCtx(ctx)
	} else {
		err = m.ForEachCtx(ctx, func([]graph.VertexID) bool { n++; return true })
	}
	l.enumT = append(l.enumT, time.Since(t0))
	esp.End()
	if err != nil {
		panic(fmt.Sprintf("enumeration without a deadline failed: %v", err))
	}
	l.embedded += n
	for _, k := range led.Snapshot().Kernels {
		l.kernelCalls[k.Kernel] += k.Calls
		l.kernelScanned[k.Kernel] += k.Scanned
	}
	return canon
}

// runTraced sets up an untraced stack and replays whole passes for
// half of cfg.seconds, then sets up a stack with the timing middleware
// and replays as many passes again with spans and direct layer calls.
// It reports the per-layer metrics; the end-to-end metrics come only
// from untraced runs.
func runTraced(cfg config, w *workload, seq, warm []request) (*result, error) {
	st, c, err := setUp(w, warm, nil)
	if err != nil {
		return nil, err
	}
	genTimes := []time.Duration{st.genTime}
	splitTimes := []time.Duration{st.splitTime}
	runtime.GC()
	base := replay(st, c, w, seq, nil, func(ph *phase) bool {
		return ph.elapsed.Seconds() >= cfg.seconds/2
	})
	c.close()
	st.close()

	t := &tap{}
	st, c, err = setUp(w, warm, t)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer c.close()
	genTimes = append(genTimes, st.genTime)
	splitTimes = append(splitTimes, st.splitTime)
	tracer := obs.NewTracer(obs.TracerOptions{MaxChildren: 1 << 20})
	l := &layers{w: w, seq: seq, data: st.data, tap: t, tracer: tracer, mirror: map[string]*icec.Index{},
		kernelCalls: map[string]int64{}, kernelScanned: map[string]int64{}}
	runtime.GC()
	ph := replay(st, c, w, seq, l, func(ph *phase) bool { return ph.passes >= base.passes })
	l.pass.End()

	if err := writeSpans(cfg, tracer); err != nil {
		return nil, err
	}
	exact := maps.Clone(l.first)
	maps.Copy(exact, ph.exact)
	cs, _ := st.cacheTotals()
	m := l.metrics(st, exact, base, genTimes, splitTimes, cs)
	digestOK, err := checkDigest(cfg, "traced", exact)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   base.failed == 0 && ph.failed == 0 && digestOK && exact["direct.embeddings"] == exact["served.embeddings"],
		Attempted: base.attempted + ph.attempted,
		Failed:    base.failed + ph.failed,
		Metrics:   m,
	}, nil
}

// exactCounters snapshots the direct calls' exact counters.
func (l *layers) exactCounters() map[string]int64 {
	out := map[string]int64{
		"direct.embeddings":       l.embedded,
		"enum.recursive_calls":    l.counters.RecursiveCalls.Load(),
		"setops.intersection_ops": l.counters.IntersectionOps.Load(),
		"ceci.indexes":            int64(len(l.indexSize)),
	}
	for k := 0; k < setops.NumKernels; k++ {
		name := setops.Kernel(k).String()
		out["setops.calls."+name] = l.kernelCalls[name]
		out["setops.scanned."+name] = l.kernelScanned[name]
	}
	for _, b := range l.indexSize {
		out["ceci.index_bytes"] += b
	}
	return out
}

// metrics derives the per-layer metrics; ex holds the first traced
// pass's exact counters and cs the engines' cache at the end.
func (l *layers) metrics(st *stack, ex map[string]int64, base *phase, genTimes, splitTimes []time.Duration, cs service.CacheStats) map[string]metric {
	ms := func(ds []time.Duration) metric { return metric{medianMS(ds), "ms"} }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var canonUS []float64
	for _, d := range l.canon {
		canonUS = append(canonUS, float64(d)/float64(time.Microsecond))
	}
	var vertexRatio float64 // 0 without a partition
	for _, p := range st.parts {
		vertexRatio += float64(p.Graph.NumVertices()) / float64(st.data.NumVertices())
	}
	var scanned int64
	for k := 0; k < setops.NumKernels; k++ {
		scanned += ex["setops.scanned."+setops.Kernel(k).String()]
	}
	var baseSum time.Duration
	for _, d := range base.walls {
		baseSum += d
	}
	secs := func(ds []time.Duration) float64 { return medianMS(ds) / 1000 }
	m := map[string]metric{
		"graph.gen_s":                {secs(genTimes), "s"},
		"shard.split_s":              {secs(splitTimes), "s"},
		"shard.vertex_ratio":         {vertexRatio, "ratio"},
		"canon.p50_us":               {median(canonUS), "us"},
		"order.preprocess_p50_ms":    ms(l.preprocess),
		"ceci.build_p50_ms":          ms(l.build),
		"ceci.build_alloc_kb":        {median(l.allocKB), "KB"},
		"ceci.index_kb":              {ratio(ex["ceci.index_bytes"], ex["ceci.indexes"]) / 1024, "KB"},
		"cache.hit_ratio":            {ratio(ex["cache.hits"], ex["cache.hits"]+ex["cache.misses"]), "ratio"},
		"cache.evictions":            {float64(ex["cache.evictions"]), "count"},
		"cache.used_mb":              {float64(cs.UsedBytes) / (1 << 20), "MB"},
		"service.builds":             {float64(ex["service.builds"]), "count"},
		"enum.p50_ms":                ms(l.enumT),
		"enum.recursive_calls":       {float64(ex["enum.recursive_calls"]), "count"},
		"setops.intersection_ops":    {float64(ex["setops.intersection_ops"]), "count"},
		"setops.scanned":             {float64(scanned), "count"},
		"service.self_p50_ms":        ms(l.serviceSelf),
		"http.transport_p50_ms":      ms(l.transport),
		"http.resp_kb":               {float64(l.respBytes) / float64(max(l.responses, 1)) / 1024, "KB"},
		"service.queue_wait_p50_ms":  ms(l.queue),
		"route.self_p50_ms":          ms(l.routeSelf),
		"route.slowest_shard_p50_ms": ms(l.slowest),
		"route.shard_skew":           {median(l.skew), "ratio"},
		"trace.residual_pct":         {100 * float64(l.clientSum-l.namedSum) / float64(l.clientSum), "%"},
		"trace.overhead_pct":         {100 * (float64(l.clientSum)/float64(l.responses)/(float64(baseSum)/float64(len(base.walls))) - 1), "%"},
	}
	for k := 0; k < setops.NumKernels; k++ {
		name := setops.Kernel(k).String()
		m["setops.calls."+name] = metric{float64(ex["setops.calls."+name]), "count"}
	}
	return m
}

// writeSpans writes the traced passes' span forest as JSONL, one span
// per line.
func writeSpans(cfg config, tracer *obs.Tracer) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := obs.WriteSpanJSONL(bw, tracer.Tree()); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
