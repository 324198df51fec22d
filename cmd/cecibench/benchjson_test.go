package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchCase(total int64) CaseResult {
	return CaseResult{
		Dataset: "wt_s", Query: "QG1",
		Embeddings:       100,
		BuildNS:          total / 2,
		EnumNS:           total / 2,
		TotalNS:          total,
		EmbeddingsPerSec: 1e6,
		IndexBytes:       4096,
		RecursiveCalls:   1000,
		IntersectionOps:  500,
		PeakHeapBytes:    1 << 20,
	}
}

func TestCompareBenchIdentical(t *testing.T) {
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	if n := compareBench(io.Discard, base, base, 0.25); n != 0 {
		t.Fatalf("identical results: %d regressions", n)
	}
}

func TestCompareBenchWithinThreshold(t *testing.T) {
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	cur := &BenchResult{Cases: []CaseResult{benchCase(12e8)}} // +20% < 25%
	if n := compareBench(io.Discard, base, cur, 0.25); n != 0 {
		t.Fatalf("+20%% under a 25%% threshold: %d regressions", n)
	}
}

func TestCompareBenchTimingRegression(t *testing.T) {
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	cur := &BenchResult{Cases: []CaseResult{benchCase(14e8)}} // +40% > 25%
	// build_ns and total_ns both crossed the threshold.
	if n := compareBench(io.Discard, base, cur, 0.25); n != 2 {
		t.Fatalf("regressions = %d, want 2 (build_ns, total_ns)", n)
	}
}

func TestCompareBenchEmbeddingMismatchAlwaysFails(t *testing.T) {
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	c := benchCase(1e9)
	c.Embeddings++ // off by one: correctness, not performance
	cur := &BenchResult{Cases: []CaseResult{c}}
	if n := compareBench(io.Discard, base, cur, 100); n != 1 {
		t.Fatalf("regressions = %d, want 1 even at a huge threshold", n)
	}
}

func TestCompareBenchThroughputRegression(t *testing.T) {
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	c := benchCase(1e9)
	c.EmbeddingsPerSec = 1e6 / 2 // halved throughput
	cur := &BenchResult{Cases: []CaseResult{c}}
	if n := compareBench(io.Discard, base, cur, 0.25); n != 1 {
		t.Fatalf("regressions = %d, want 1", n)
	}
}

func TestCompareBenchPeakHeapNeverGated(t *testing.T) {
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	c := benchCase(1e9)
	c.PeakHeapBytes *= 100
	cur := &BenchResult{Cases: []CaseResult{c}}
	if n := compareBench(io.Discard, base, cur, 0.25); n != 0 {
		t.Fatalf("peak heap gated: %d regressions", n)
	}
}

func TestCompareBenchProfileKeyRegression(t *testing.T) {
	b := benchCase(1e9)
	b.Profile = map[string]int64{"enum_comparisons": 1000, "enum_kernel_gallop_scanned": 400}
	base := &BenchResult{Cases: []CaseResult{b}}
	c := benchCase(1e9)
	c.Profile = map[string]int64{"enum_comparisons": 2000, "enum_kernel_gallop_scanned": 400}
	cur := &BenchResult{Cases: []CaseResult{c}}
	if n := compareBench(io.Discard, base, cur, 0.25); n != 1 {
		t.Fatalf("doubled enum_comparisons not gated: %d regressions", n)
	}
}

func TestCompareBenchProfileKeyNewInCandidate(t *testing.T) {
	// A key the baseline predates (e.g. the per-kernel split before a
	// baseline refresh) is reported but never gated.
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	c := benchCase(1e9)
	c.Profile = map[string]int64{"enum_kernel_bitset_calls": 123456}
	cur := &BenchResult{Cases: []CaseResult{c}}
	if n := compareBench(io.Discard, base, cur, 0.25); n != 0 {
		t.Fatalf("baseline-missing profile key gated: %d regressions", n)
	}
}

func TestCompareBenchMissingCase(t *testing.T) {
	base := &BenchResult{Cases: []CaseResult{benchCase(1e9)}}
	cur := &BenchResult{Cases: nil}
	if n := compareBench(io.Discard, base, cur, 0.25); n != 1 {
		t.Fatalf("missing case not flagged: %d", n)
	}
}

func TestBenchResultFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := &BenchResult{
		Name: "x", GoVersion: "go1.x", Workers: 4,
		Cases: []CaseResult{benchCase(1e9)},
	}
	path := filepath.Join(dir, "BENCH_x.json")
	b, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "x" || len(got.Cases) != 1 || got.Cases[0].TotalNS != 1e9 {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestCompareRefusesMismatchedRuns: -compare must refuse, not gate, a
// candidate whose worker count or Go release differs from the baseline's,
// and must accept another patch level of the baseline's release.
func TestCompareRefusesMismatchedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *BenchResult) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(base, cur *BenchResult) error {
		return runBenchJSON(benchJSONConfig{
			compare:   write("base.json", base),
			candidate: write("cur.json", cur),
			threshold: 0.25,
		})
	}
	mk := func(workers int, gover string) *BenchResult {
		return &BenchResult{GoVersion: gover, Workers: workers, Cases: []CaseResult{benchCase(1e9)}}
	}
	for _, gover := range []string{"go1.24.0", "go1.24.7"} {
		if err := run(mk(1, "go1.24.0"), mk(1, gover)); err != nil {
			t.Fatalf("%s against a go1.24.0 baseline refused: %v", gover, err)
		}
	}
	for _, tc := range []struct {
		name string
		cur  *BenchResult
		want string
	}{
		{"workers", mk(2, "go1.24.0"), "workers"},
		{"go_release", mk(1, "go1.25.0"), "go1.25.0"},
		{"go_prerelease", mk(1, "go1.24rc1"), "go1.24rc1"},
	} {
		err := run(mk(1, "go1.24.0"), tc.cur)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s mismatch: err = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
}

// TestCommittedBaselineLoads guards the CI gating artifact: the baseline
// checked into testdata must stay parseable and cover the full suite.
func TestCommittedBaselineLoads(t *testing.T) {
	base, err := loadBenchResult(filepath.Join("testdata", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cases) != len(benchSuite) {
		t.Fatalf("baseline has %d cases, suite has %d", len(base.Cases), len(benchSuite))
	}
	for i, c := range benchSuite {
		got := base.Cases[i]
		if got.Dataset != c.dataset || got.Query != c.query {
			t.Fatalf("baseline case %d = %s/%s, want %s/%s", i, got.Dataset, got.Query, c.dataset, c.query)
		}
		if got.Embeddings <= 0 || got.TotalNS <= 0 {
			t.Fatalf("baseline case %d has empty measurements: %+v", i, got)
		}
	}
}
