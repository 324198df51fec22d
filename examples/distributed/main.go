// Distributed deployment walkthrough (Section 5 of the paper): runs the
// same query through two deployments —
//
//  1. the measured/simulated cluster in both placement modes, printing
//     per-machine cost ledgers (pivots assigned, work stolen, build
//     compute vs IO vs communication) and the speedup over one machine;
//  2. the shared-storage deployment with real file IO: one CSR file on
//     disk, machines materializing only the regions their pivots need.
//
// Real multi-process serving of a partitioned graph — shard-mode
// ceciserve processes behind the ceciroute router — is walked through
// in the README's "Sharded serving" section.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ceci/internal/cluster"
	"ceci/internal/datasets"
	"ceci/internal/gen"
	"ceci/internal/graph"
)

func main() {
	data, err := datasets.Load("wt_s")
	if err != nil {
		log.Fatal(err)
	}
	query := gen.QG1() // triangle
	fmt.Printf("data graph: %v, query: triangle\n\n", data)

	sim, err := cluster.NewSimulation(data, query)
	if err != nil {
		log.Fatal(err)
	}
	for _, mode := range []cluster.Mode{cluster.Replicated, cluster.SharedStorage} {
		fmt.Printf("== mode: %v ==\n", mode)
		var base *cluster.Result
		for _, machines := range []int{1, 4, 8} {
			res, err := sim.Run(cluster.Config{
				Machines:          machines,
				WorkersPerMachine: 4,
				Mode:              mode,
				Jaccard:           mode == cluster.Replicated,
			})
			if err != nil {
				log.Fatal(err)
			}
			if machines == 1 {
				base = res
			}
			fmt.Printf("%d machine(s): %d embeddings, makespan %v (%.2fx), %d steals\n",
				machines, res.Embeddings, res.Makespan.Round(1000),
				float64(base.Makespan)/float64(res.Makespan), res.Steals)
			if machines == 8 {
				fmt.Println("  per-machine ledgers:")
				for i, l := range res.Machines {
					fmt.Printf("   m%d: pivots=%-5d stolen=%-3d buildCPU=%-10v buildIO=%-10v comm=%-10v enum=%-10v embeddings=%d\n",
						i, l.Pivots, l.Stolen,
						l.BuildCompute.Round(1000), l.BuildIO.Round(1000),
						l.Comm.Round(1000), l.Enumerate.Round(1000), l.Embeddings)
				}
			}
		}
		fmt.Println()
	}

	// The shared-storage deployment against a real CSR file.
	fmt.Println("== shared storage (one CSR file, real positioned reads) ==")
	dir, err := os.MkdirTemp("", "ceci-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	csrPath := filepath.Join(dir, "data.csr")
	f, err := os.Create(csrPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := graph.WriteCSR(f, data); err != nil {
		log.Fatal(err)
	}
	f.Close()
	diskRes, err := cluster.RunDiskShared(csrPath, query, cluster.Config{
		Machines: 4, WorkersPerMachine: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	var reads int64
	for _, l := range diskRes.Machines {
		reads += l.RemoteReads
	}
	fmt.Printf("4 machines on shared CSR: %d embeddings, %d adjacency reads from disk\n",
		diskRes.Embeddings, reads)
}
