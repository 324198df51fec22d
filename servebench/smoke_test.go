package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// benchmark must honour: the workload names and the metric names each
// mode prints.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEveryWorkload runs every workload for a fraction of a second
// on short passes, untraced and traced, twice each into one output
// directory, so the second run also passes the determinism guard. Every
// answer must be correct and every metric BENCHMARK.json names must be
// printed with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack")
	}
	spec := loadSpec(t)
	out := t.TempDir()
	passLen := map[string]int{"hot-count": 6, "cold-build": 24, "fleet-page": 10}
	for _, wl := range spec.Workloads {
		if _, err := workloadByName(wl.Name); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for rep := 0; rep < 2; rep++ {
				cfg := config{workload: wl.Name, seed: 3, seconds: 0.2, trace: trace, out: out,
					setups: 1, minSamples: 1, passLen: passLen[wl.Name]}
				res, err := run(cfg)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s trace=%v run %d: correct=%v attempted=%d failed=%d",
						wl.Name, trace, rep, res.Correct, res.Attempted, res.Failed)
				}
				var names []string
				for _, m := range want {
					names = append(names, m.Name)
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
					}
				}
				if extra := slices.DeleteFunc(slices.Sorted(maps.Keys(res.Metrics)), func(n string) bool {
					return slices.Contains(names, n)
				}); len(extra) > 0 {
					t.Errorf("%s trace=%v: metrics not in BENCHMARK.json: %v", wl.Name, trace, extra)
				}
			}
		}
	}
}

func TestDigestMismatchFails(t *testing.T) {
	cfg := config{workload: "hot-count", seed: 1, out: t.TempDir()}
	ok, err := checkDigest(cfg, "timed", map[string]int64{"a": 1, "b": 2})
	if err != nil || !ok {
		t.Fatalf("first record: ok=%v err=%v", ok, err)
	}
	if ok, err := checkDigest(cfg, "timed", map[string]int64{"a": 1, "b": 2}); err != nil || !ok {
		t.Fatalf("identical counters: ok=%v err=%v", ok, err)
	}
	if ok, err := checkDigest(cfg, "timed", map[string]int64{"a": 1, "b": 3}); err != nil || ok {
		t.Fatalf("changed counter: ok=%v err=%v, want a mismatch", ok, err)
	}
	if ok, err := checkDigest(cfg, "timed", map[string]int64{"a": 1}); err != nil || ok {
		t.Fatalf("missing counter: ok=%v err=%v, want a mismatch", ok, err)
	}
}
