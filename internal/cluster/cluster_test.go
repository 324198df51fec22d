package cluster_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ceci/internal/auto"
	"ceci/internal/cluster"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/reference"
)

func TestClusterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		data := randomGraph(rng, 20, 60, 2)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		cons := auto.Compute(query)
		want := reference.Count(data, query, reference.Options{Constraints: cons})
		sim, err := cluster.NewSimulation(data, query)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, machines := range []int{1, 3, 5} {
			for _, mode := range []cluster.Mode{cluster.Replicated, cluster.SharedStorage} {
				res, err := sim.Run(cluster.Config{
					Machines:          machines,
					WorkersPerMachine: 2,
					Mode:              mode,
				})
				if err != nil {
					t.Fatalf("trial %d m=%d %v: %v", trial, machines, mode, err)
				}
				// The per-machine ledgers, not just the measured total,
				// must add up: every cluster is enumerated exactly once.
				if got := ledgerEmbeddings(res); got != want || res.Embeddings != want {
					t.Fatalf("trial %d m=%d %v: ledgers sum to %d (total %d), want %d",
						trial, machines, mode, got, res.Embeddings, want)
				}
			}
		}
	}
}

func ledgerEmbeddings(r *cluster.Result) (sum int64) {
	for _, l := range r.Machines {
		sum += l.Embeddings
	}
	return sum
}

func TestClusterJaccardColocationAgrees(t *testing.T) {
	sim, err := cluster.NewSimulation(gen.Kronecker(9, 8, 13), gen.QG2())
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(cluster.Config{Machines: 4, WorkersPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	jac, err := sim.Run(cluster.Config{
		Machines: 4, WorkersPerMachine: 1, Jaccard: true, JaccardTopK: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, j := ledgerEmbeddings(base), ledgerEmbeddings(jac); b != j || b != sim.Embeddings() {
		t.Fatalf("jaccard co-location changed result: %d vs %d (measured %d)", j, b, sim.Embeddings())
	}
}

func TestClusterLedgers(t *testing.T) {
	res, err := cluster.Simulate(gen.Kronecker(9, 8, 5), gen.QG1(), cluster.Config{
		Machines: 4, WorkersPerMachine: 1, Mode: cluster.SharedStorage,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	var pivots, reads int64
	for _, l := range res.Machines {
		pivots += int64(l.Pivots)
		reads += l.RemoteReads
	}
	if pivots == 0 {
		t.Fatal("no pivots distributed")
	}
	if reads == 0 {
		t.Fatal("shared-storage mode recorded no remote reads")
	}
	// BuildIO must reflect the remote reads in shared mode.
	for i, l := range res.Machines {
		if l.RemoteReads > 0 && l.BuildIO == 0 {
			t.Fatalf("machine %d: %d remote reads but zero BuildIO", i, l.RemoteReads)
		}
	}
}

func TestClusterWorkStealingOccurs(t *testing.T) {
	// A deliberately skewed pivot distribution: a hub-heavy Kronecker
	// graph with many machines and one worker each. This asserts the
	// steal accounting is consistent and the count is unchanged however
	// many clusters move, not a scheduling property.
	sim, err := cluster.NewSimulation(gen.Kronecker(10, 10, 2), gen.QG1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cluster.Config{Machines: 8, WorkersPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := sim.Run(cluster.Config{Machines: 1, WorkersPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledgerEmbeddings(res), ledgerEmbeddings(single); got != want {
		t.Fatalf("distributed count %d != single-machine %d", got, want)
	}
	if single.Steals != 0 {
		t.Fatalf("one machine stole %d clusters from nobody", single.Steals)
	}
	var stolen int64
	for _, l := range res.Machines {
		stolen += int64(l.Stolen)
	}
	if stolen != res.Steals {
		t.Fatalf("ledgers record %d stolen clusters, result %d", stolen, res.Steals)
	}
}

// TestSimulateMatchesRun: the two §5 runtimes — the discrete-event
// simulation and the shared-storage run with real file IO — must find
// the same embedding count for the same configuration.
func TestSimulateMatchesRun(t *testing.T) {
	data := gen.Kronecker(9, 6, 17)
	query := gen.QG2()
	path := writeCSR(t, filepath.Join(t.TempDir(), "data.csr"), data)
	sim, err := cluster.NewSimulation(data, query)
	if err != nil {
		t.Fatal(err)
	}
	for _, machines := range []int{1, 3, 8} {
		cfg := cluster.Config{Machines: machines, WorkersPerMachine: 2, Mode: cluster.SharedStorage}
		simRes, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runRes, err := cluster.RunDiskShared(path, query, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ledgerEmbeddings(simRes); got != runRes.Embeddings || got != sim.Embeddings() {
			t.Fatalf("m=%d: simulate %d (measured %d) != disk run %d",
				machines, got, sim.Embeddings(), runRes.Embeddings)
		}
	}
}

// TestSimulationSpeedupMonotone: more machines never increase the
// enumeration-phase makespan in replicated mode (build and comm charges
// are per-machine constants there).
func TestSimulationSpeedupMonotone(t *testing.T) {
	data := gen.Kronecker(10, 8, 23)
	sim, err := cluster.NewSimulation(data, gen.QG1())
	if err != nil {
		t.Fatal(err)
	}
	var prev *cluster.Result
	for _, machines := range []int{1, 2, 4, 8} {
		res, err := sim.Run(cluster.Config{Machines: machines, WorkersPerMachine: 2})
		if err != nil {
			t.Fatal(err)
		}
		var maxEnum, prevMax = maxEnumerate(res), maxEnumerate(prev)
		if prev != nil && maxEnum > prevMax+prevMax/4 {
			t.Fatalf("enumeration makespan grew: %v -> %v at %d machines",
				prevMax, maxEnum, machines)
		}
		prev = res
	}
}

func maxEnumerate(r *cluster.Result) (max time.Duration) {
	if r == nil {
		return 0
	}
	for _, l := range r.Machines {
		if l.Enumerate > max {
			max = l.Enumerate
		}
	}
	return max
}

func TestClusterRejectsBadConfig(t *testing.T) {
	sim, err := cluster.NewSimulation(gen.Kronecker(6, 4, 1), gen.QG1())
	if err != nil {
		t.Fatal(err)
	}
	for _, machines := range []int{0, -1} {
		if _, err := sim.Run(cluster.Config{Machines: machines}); err == nil {
			t.Fatalf("expected error for %d machines", machines)
		}
	}
}

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VertexID(perm[i-1]), graph.VertexID(perm[i]))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.MustBuild()
}

// TestRunDiskSharedMatchesOracle: the real-file-IO shared-storage
// deployment must produce exact counts and record actual reads.
func TestRunDiskSharedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	dir := t.TempDir()
	for trial := 0; trial < 6; trial++ {
		data := randomGraph(rng, 30, 90, 3)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		path := writeCSR(t, filepath.Join(dir, fmt.Sprintf("g%d.csr", trial)), data)

		cons := auto.Compute(query)
		want := reference.Count(data, query, reference.Options{Constraints: cons})
		for _, machines := range []int{1, 3} {
			res, err := cluster.RunDiskShared(path, query, cluster.Config{
				Machines:          machines,
				WorkersPerMachine: 1,
			})
			if err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, machines, err)
			}
			if res.Embeddings != want {
				t.Fatalf("trial %d m=%d: got %d want %d", trial, machines, res.Embeddings, want)
			}
			if want > 0 {
				var reads int64
				for _, l := range res.Machines {
					reads += l.RemoteReads
				}
				if reads == 0 {
					t.Fatalf("trial %d: no disk reads recorded", trial)
				}
			}
		}
	}
}

// writeCSR stores data as a binary CSR file at path, the shared-storage
// runtime's input.
func writeCSR(t *testing.T, path string, data *graph.Graph) string {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graph.WriteCSR(f, data); err != nil {
		t.Fatal(err)
	}
	return path
}
