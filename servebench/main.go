// Command servebench is the served-query benchmark: a one-process load
// generator that drives the real serving stack — service.Engine's HTTP
// handler on one node, or shard.Router over three in-process
// shard.Split shards — over loopback HTTP with a closed loop of one
// client, replays a seeded request sequence in whole passes, checks
// every answer, and prints the metrics as one JSON line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash servebench/run.sh --workload hot-count --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the sequence again with timing middleware and direct calls
// into each layer and reports the per-layer metrics, writing the spans
// under --out. README.md beside this file explains the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	out        string // span files and determinism records
	setups     int    // set-ups per untraced run; setup_s is their median
	minSamples int    // requests a timed phase must complete at least
	passLen    int    // requests per pass; 0 = the workload's own
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setups: 5, minSamples: minSamplesFor(90)}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hot-count, cold-build or fleet-page")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the request sequence is drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "minimum length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/servebench-out", "directory for span files and determinism records")
	flag.Parse()
	cfg.trace = trace == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run prepares the workload's inputs and runs it, traced or not.
func run(cfg config) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	// The inputs come from a graph generated here, outside set-up; the
	// stack generates its own, identical one.
	n := w.passLen
	if cfg.passLen > 0 {
		n = cfg.passLen
	}
	seq, warm, err := w.inputs(w.data(), cfg.seed, n)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(cfg, w, seq, warm)
	}
	return runTimed(cfg, w, seq, warm)
}

// setUp starts the stack, connects the client and warms the caches
// with the warm-up requests, whose answers are checked too.
func setUp(w *workload, warm []request, t *tap) (*stack, *client, error) {
	st, err := startStack(w, t)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(st.url)
	for i := range warm {
		rep, _, err := c.send(&warm[i])
		if err == nil {
			err = w.check(st.data, &warm[i], &rep)
		}
		if err != nil {
			c.close()
			st.close()
			return nil, nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return st, c, nil
}

// runTimed is the untraced run: it sets the stack up cfg.setups times,
// keeps the last, and replays whole passes until cfg.seconds have
// passed and at least cfg.minSamples requests completed.
func runTimed(cfg config, w *workload, seq, warm []request) (*result, error) {
	var setups []float64
	var st *stack
	var c *client
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			c.close()
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, c, err = setUp(w, warm, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	defer c.close()
	runtime.GC() // start timing without the earlier set-ups' garbage

	ph := replay(st, c, w, seq, nil, func(ph *phase) bool {
		return len(ph.walls) >= cfg.minSamples && ph.elapsed.Seconds() >= cfg.seconds
	})

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	lat := durationsMS(ph.walls)
	res := &result{
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"latency_p50_ms": {percentile(lat, 50), "ms"},
			"latency_p90_ms": {percentile(lat, 90), "ms"},
			"throughput_qps": {float64(len(ph.walls)) / ph.elapsed.Seconds(), "1/s"},
			"live_heap_mb":   {float64(ms.HeapAlloc) / (1 << 20), "MB"},
		},
	}
	digestOK, err := checkDigest(cfg, "timed", ph.exact)
	if err != nil {
		return nil, err
	}
	res.Correct = ph.failed == 0 && digestOK
	return res, nil
}

// printSummary writes the metrics as an aligned table to standard error.
func printSummary(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "%-28s %14d\n%-28s %14d\n%-28s %14v\n",
		"attempted", res.Attempted, "failed", res.Failed, "correct", res.Correct)
}
