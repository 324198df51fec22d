package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ceci"
	"ceci/internal/datasets"
	"ceci/internal/gen"
)

// The regression-tracking suite: small enough for CI, varied enough to
// cover both sparse (wt_s) and denser (yt_s) substitutes and both a
// path-ish (QG1) and a cyclic (QG3) pattern.
var benchSuite = []struct {
	dataset string
	query   string
}{
	{"wt_s", "QG1"},
	{"wt_s", "QG3"},
	{"yt_s", "QG1"},
	{"yt_s", "QG3"},
}

const benchReps = 3

// BenchResult is one BENCH_<name>.json document: everything needed to
// compare two checkouts of this repository on the same machine (timing
// metrics) or across machines (deterministic counters).
type BenchResult struct {
	Name      string       `json:"name"`
	GitSHA    string       `json:"git_sha,omitempty"`
	GoVersion string       `json:"go_version"`
	Workers   int          `json:"workers"`
	Cases     []CaseResult `json:"cases"`
}

// CaseResult is one (dataset, query) measurement.
type CaseResult struct {
	Dataset string `json:"dataset"`
	Query   string `json:"query"`

	// Correctness gate: must match the baseline exactly.
	Embeddings int64 `json:"embeddings"`

	// Timing metrics (medians over benchReps runs); machine-dependent.
	BuildNS          int64   `json:"build_ns"`
	EnumNS           int64   `json:"enum_ns"`
	TotalNS          int64   `json:"total_ns"`
	EmbeddingsPerSec float64 `json:"embeddings_per_sec"`

	// Deterministic work counters; comparable across machines.
	IndexBytes      int64 `json:"index_bytes"`
	RecursiveCalls  int64 `json:"recursive_calls"`
	IntersectionOps int64 `json:"intersection_ops"`

	// Allocation metrics for the enumeration phase (heap allocations and
	// bytes per full enumeration, minimum over reps — the minimum is the
	// least contaminated by background goroutines and GC bookkeeping).
	// Gated in -compare: the enumeration hot path is designed to be
	// allocation-free, so growth here is a structural regression.
	EnumAllocsPerOp int64 `json:"enum_allocs_per_op"`
	EnumBytesPerOp  int64 `json:"enum_bytes_per_op"`

	// Memory: max heap-in-use observed after each rep. Reported in
	// comparisons but never gated (GC timing makes it noisy).
	PeakHeapBytes int64 `json:"peak_heap_bytes"`

	// Profile is the filter-funnel summary from the EXPLAIN ANALYZE
	// collector — deterministic totals across the whole run.
	Profile map[string]int64 `json:"profile,omitempty"`

	// Order is how the matching order was chosen ("bfs", ...,
	// "auto:<winner>" under the planner); MatchingOrder is the order
	// itself; PlannerEstimate is the cost model's estimate for it (0
	// when the planner was off). Order changes are reported by -compare
	// but never gated — the gated counters above already catch any real
	// cost of an order switch.
	Order           string  `json:"order,omitempty"`
	MatchingOrder   []int   `json:"matching_order,omitempty"`
	PlannerEstimate float64 `json:"planner_estimate,omitempty"`
}

type benchJSONConfig struct {
	jsonOut   string  // directory for BENCH_<name>.json ("" = don't write)
	name      string  // bench name; file becomes BENCH_<name>.json
	compare   string  // baseline BENCH json to compare against ("" = don't)
	candidate string  // pre-recorded candidate json ("" = run the suite)
	threshold float64 // relative regression threshold for timing metrics
	workers   int
	order     string // matching order: a heuristic name or "auto" (default bfs)
}

// runBenchJSON drives the machine-readable benchmark modes: run the
// suite and write BENCH_<name>.json, compare against a baseline, or
// both. Returns an error (non-zero exit) on any regression.
func runBenchJSON(cfg benchJSONConfig) error {
	var cur *BenchResult
	if cfg.candidate != "" {
		loaded, err := loadBenchResult(cfg.candidate)
		if err != nil {
			return fmt.Errorf("-candidate: %w", err)
		}
		cur = loaded
	} else {
		measured, err := measureSuite(cfg.name, cfg.workers, cfg.order)
		if err != nil {
			return err
		}
		cur = measured
	}

	if cfg.jsonOut != "" {
		if err := os.MkdirAll(cfg.jsonOut, 0o755); err != nil {
			return err
		}
		path := filepath.Join(cfg.jsonOut, "BENCH_"+cur.Name+".json")
		b, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cases)\n", path, len(cur.Cases))
	}

	if cfg.compare != "" {
		base, err := loadBenchResult(cfg.compare)
		if err != nil {
			return fmt.Errorf("-compare: %w", err)
		}
		if err := checkComparable(base, cur); err != nil {
			return fmt.Errorf("-compare %s: %w", cfg.compare, err)
		}
		regressions := compareBench(os.Stdout, base, cur, cfg.threshold)
		if regressions > 0 {
			return fmt.Errorf("%d regression(s) vs %s (threshold %.0f%%)",
				regressions, cfg.compare, 100*cfg.threshold)
		}
		fmt.Printf("no regressions vs %s (threshold %.0f%%)\n", cfg.compare, 100*cfg.threshold)
	}
	return nil
}

// checkComparable refuses a comparison whose runs differ in worker count
// or Go release: either one moves the allocation and timing figures by
// more than any regression the gate is meant to catch (a 2-worker run
// reads as a +150–380% allocs/op jump against a 1-worker baseline).
// Patch levels of one release (go1.24.0 vs go1.24.7) are accepted.
func checkComparable(base, cur *BenchResult) error {
	if base.Workers != cur.Workers {
		return fmt.Errorf("baseline ran %d workers, candidate %d (pass -workers %d)",
			base.Workers, cur.Workers, base.Workers)
	}
	if goRelease(base.GoVersion) != goRelease(cur.GoVersion) {
		return fmt.Errorf("baseline built with %s, candidate with %s", base.GoVersion, cur.GoVersion)
	}
	return nil
}

// goRelease strips the patch level from a runtime.Version string:
// "go1.24.7" -> "go1.24". Other forms (go1.24rc1, devel builds) are
// returned unchanged.
func goRelease(v string) string {
	if parts := strings.SplitN(v, ".", 3); len(parts) == 3 {
		return parts[0] + "." + parts[1]
	}
	return v
}

func loadBenchResult(path string) (*BenchResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// measureSuite runs every suite case benchReps times and records the
// median timings plus the deterministic counters of the final rep.
// orderName selects the matching order for every case: a heuristic name
// or "auto" for the cost-based planner ("" = bfs, the default).
func measureSuite(name string, workers int, orderName string) (*BenchResult, error) {
	if workers <= 0 || workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0) // oversubscription only adds noise
	}
	res := &BenchResult{
		Name:      name,
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		Workers:   workers,
	}
	for _, c := range benchSuite {
		data, err := datasets.Load(c.dataset)
		if err != nil {
			return nil, err
		}
		query, ok := gen.QueryGraphs()[c.query]
		if !ok {
			return nil, fmt.Errorf("unknown query %s", c.query)
		}

		var builds, enums []time.Duration
		var cr CaseResult
		cr.Dataset, cr.Query = c.dataset, c.query
		for rep := 0; rep < benchReps; rep++ {
			st := &ceci.Stats{}
			opts := &ceci.Options{Workers: workers, Stats: st}
			if err := applyOrder(opts, orderName); err != nil {
				return nil, err
			}
			buildStart := time.Now()
			m, err := ceci.Match(data, query, opts)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.dataset, c.query, err)
			}
			builds = append(builds, time.Since(buildStart))
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			enumStart := time.Now()
			n := m.Count()
			enums = append(enums, time.Since(enumStart))
			runtime.ReadMemStats(&ms1)
			allocs := int64(ms1.Mallocs - ms0.Mallocs)
			bytes := int64(ms1.TotalAlloc - ms0.TotalAlloc)
			if rep == 0 || allocs < cr.EnumAllocsPerOp {
				cr.EnumAllocsPerOp = allocs
			}
			if rep == 0 || bytes < cr.EnumBytesPerOp {
				cr.EnumBytesPerOp = bytes
			}

			snap := st.Snapshot()
			cr.Embeddings = n
			cr.IndexBytes = snap["index_bytes"]
			cr.RecursiveCalls = snap["recursive_calls"]
			cr.IntersectionOps = snap["intersection_ops"]
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if heap := int64(ms.HeapInuse); heap > cr.PeakHeapBytes {
				cr.PeakHeapBytes = heap
			}
		}
		// One profiled run for the funnel summary (kept out of the timed
		// reps so instrumentation can never shift the timing metrics).
		profOpts := &ceci.Options{Workers: workers}
		if err := applyOrder(profOpts, orderName); err != nil {
			return nil, err
		}
		rep, err := ceci.ExplainAnalyze(data, query, profOpts)
		if err != nil {
			return nil, err
		}
		cr.Profile = rep.Profile.FunnelTotals()
		cr.Order = rep.Profile.Order
		cr.MatchingOrder = rep.Profile.MatchingOrder
		if pp := rep.Profile.Planner; pp != nil {
			cr.PlannerEstimate = pp.Estimate
		}

		cr.BuildNS = int64(median(builds))
		cr.EnumNS = int64(median(enums))
		cr.TotalNS = cr.BuildNS + cr.EnumNS
		if cr.EnumNS > 0 {
			cr.EmbeddingsPerSec = float64(cr.Embeddings) / (float64(cr.EnumNS) / float64(time.Second))
		}
		res.Cases = append(res.Cases, cr)
		fmt.Printf("%-6s %-4s  embeddings=%-10d build=%-12v enum=%-12v\n",
			c.dataset, c.query, cr.Embeddings,
			time.Duration(cr.BuildNS).Round(time.Microsecond),
			time.Duration(cr.EnumNS).Round(time.Microsecond))
	}
	return res, nil
}

// compareBench prints per-metric deltas and returns the number of
// regressions. Gating rules:
//
//   - embeddings must match exactly (a mismatch is a correctness bug,
//     not a performance regression);
//   - timing metrics (build_ns, total_ns) regress when the candidate
//     exceeds baseline × (1 + threshold); embeddings_per_sec regresses
//     when it falls below baseline ÷ (1 + threshold);
//   - deterministic counters (index_bytes, recursive_calls,
//     intersection_ops) use the same relative threshold — they should
//     not move at all, but the threshold forgives intentional algorithm
//     changes accompanied by a baseline refresh;
//   - peak_heap_bytes is reported but never gated.
func compareBench(w io.Writer, base, cur *BenchResult, threshold float64) int {
	baseCases := map[string]CaseResult{}
	for _, c := range base.Cases {
		baseCases[c.Dataset+"/"+c.Query] = c
	}
	keys := make([]string, 0, len(cur.Cases))
	curCases := map[string]CaseResult{}
	for _, c := range cur.Cases {
		k := c.Dataset + "/" + c.Query
		keys = append(keys, k)
		curCases[k] = c
	}
	sort.Strings(keys)

	regressions := 0
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s  %s\n",
		"case", "metric", "baseline", "candidate", "delta", "verdict")
	for _, k := range keys {
		c := curCases[k]
		b, ok := baseCases[k]
		if !ok {
			fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s  new case (not gated)\n", k, "-", "-", "-", "-")
			continue
		}
		row := func(metric string, baseV, curV float64, bad bool) {
			verdict := "ok"
			if bad {
				verdict = "REGRESSION"
				regressions++
			}
			delta := "-"
			if baseV != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(curV-baseV)/baseV)
			}
			fmt.Fprintf(w, "%-12s %-20s %14.0f %14.0f %9s  %s\n", k, metric, baseV, curV, delta, verdict)
		}
		if b.Order != "" && c.Order != "" && b.Order != c.Order {
			fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s  order changed (not gated)\n",
				k, "order", b.Order, c.Order, "-")
		}
		row("embeddings", float64(b.Embeddings), float64(c.Embeddings), c.Embeddings != b.Embeddings)
		row("build_ns", float64(b.BuildNS), float64(c.BuildNS), exceeds(c.BuildNS, b.BuildNS, threshold))
		row("total_ns", float64(b.TotalNS), float64(c.TotalNS), exceeds(c.TotalNS, b.TotalNS, threshold))
		row("embeddings_per_sec", b.EmbeddingsPerSec, c.EmbeddingsPerSec,
			b.EmbeddingsPerSec > 0 && c.EmbeddingsPerSec < b.EmbeddingsPerSec/(1+threshold))
		row("index_bytes", float64(b.IndexBytes), float64(c.IndexBytes), exceeds(c.IndexBytes, b.IndexBytes, threshold))
		row("recursive_calls", float64(b.RecursiveCalls), float64(c.RecursiveCalls), exceeds(c.RecursiveCalls, b.RecursiveCalls, threshold))
		row("intersection_ops", float64(b.IntersectionOps), float64(c.IntersectionOps), exceeds(c.IntersectionOps, b.IntersectionOps, threshold))
		// Allocation metrics: exceeds() skips gating when the baseline
		// predates them (zero value).
		row("enum_allocs_per_op", float64(b.EnumAllocsPerOp), float64(c.EnumAllocsPerOp), exceeds(c.EnumAllocsPerOp, b.EnumAllocsPerOp, threshold))
		row("enum_bytes_per_op", float64(b.EnumBytesPerOp), float64(c.EnumBytesPerOp), exceeds(c.EnumBytesPerOp, b.EnumBytesPerOp, threshold))
		row("peak_heap_bytes", float64(b.PeakHeapBytes), float64(c.PeakHeapBytes), false)
		// Deterministic funnel counters from the profiled run, including
		// the per-kernel enum split. Keys present in both documents gate
		// with the relative threshold; keys the baseline predates are
		// reported unchecked until the next baseline refresh.
		profKeys := make([]string, 0, len(c.Profile))
		for pk := range c.Profile {
			if strings.HasPrefix(pk, "enum_") {
				profKeys = append(profKeys, pk)
			}
		}
		sort.Strings(profKeys)
		for _, pk := range profKeys {
			bv, inBase := b.Profile[pk]
			row(pk, float64(bv), float64(c.Profile[pk]), inBase && exceeds(c.Profile[pk], bv, threshold))
		}
	}
	for k := range baseCases {
		if _, ok := curCases[k]; !ok {
			fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s  MISSING from candidate\n", k, "-", "-", "-", "-")
			regressions++
		}
	}
	return regressions
}

// applyOrder maps a -order flag value onto match options: a static
// heuristic by name, or "auto" for the cost-based planner.
func applyOrder(opts *ceci.Options, name string) error {
	switch strings.ToLower(name) {
	case "", "bfs":
		opts.Order = ceci.OrderBFS
	case "least-frequent":
		opts.Order = ceci.OrderLeastFrequent
	case "path-ranked":
		opts.Order = ceci.OrderPathRanked
	case "edge-ranked":
		opts.Order = ceci.OrderEdgeRanked
	case "auto":
		opts.Planner = true
	default:
		return fmt.Errorf("unknown order %q", name)
	}
	return nil
}

// exceeds reports whether cur has grown past base by more than the
// relative threshold.
func exceeds(cur, base int64, threshold float64) bool {
	if base <= 0 {
		return false
	}
	return float64(cur) > float64(base)*(1+threshold)
}

// gitSHA best-effort resolves HEAD; empty when git is unavailable.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
