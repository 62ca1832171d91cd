// LUBM head-to-head: generate a LUBM-like university graph, partition it
// with MPC and with subject hashing, and run the same non-star benchmark
// query (LQ9, the advisor–course triangle) on both clusters. Under MPC the
// query is an internal IEQ and needs no inter-partition join; under subject
// hashing it is decomposed into star subqueries whose results must be
// shipped and joined.
//
//	go run ./examples/lubm
package main

import (
	"fmt"
	"log"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/workload"
)

func main() {
	const triples = 60000
	g := datagen.LUBM{}.Generate(triples, 1)
	fmt.Println("dataset:", g.Stats())

	opts := partition.Options{K: 4, Epsilon: 0.1, Seed: 1}

	mpcPart, err := (core.MPC{}).PartitionFull(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MPC:          |L_cross|=%-3d |E^c|=%d\n",
		mpcPart.NumCrossingProperties(), mpcPart.NumCrossingEdges())

	hashPart, err := (partition.SubjectHash{}).Partition(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Subject_Hash: |L_cross|=%-3d |E^c|=%d\n",
		hashPart.NumCrossingProperties(), hashPart.NumCrossingEdges())

	mpcCluster, err := cluster.NewFromPartitioning(mpcPart.Partitioning, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	hashCluster, err := cluster.New(hashPart, nil, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}

	for _, q := range workload.LUBMQueries(g, 1) {
		if q.Star() {
			continue // compare the interesting non-star queries
		}
		a, err := mpcCluster.Execute(q.Query)
		if err != nil {
			log.Fatal(err)
		}
		b, err := hashCluster.Execute(q.Query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (%d results)\n", q.Name, a.Table.Len())
		fmt.Printf("  MPC:          class=%-8s subqueries=%d  total=%-10v join=%v\n",
			a.Stats.Class, a.Stats.NumSubqueries, a.Stats.Total(), a.Stats.JoinTime)
		fmt.Printf("  Subject_Hash: class=%-8s subqueries=%d  total=%-10v join=%v (%d tuples shipped)\n",
			b.Stats.Class, b.Stats.NumSubqueries, b.Stats.Total(), b.Stats.JoinTime,
			b.Stats.TuplesShipped)
		if a.Table.Len() != b.Table.Len() {
			log.Fatalf("result mismatch: %d vs %d", a.Table.Len(), b.Table.Len())
		}
	}
}
