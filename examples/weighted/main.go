// Weighted MPC: the workload-aware extension sketched in the paper's
// related-work section ("considering the frequency of properties in query
// logs, a weighted MPC partitioning is also desirable"). On WatDiv — the
// dataset where plain MPC gains least — steering internal-property
// selection by query-log frequencies sharply raises the share of
// join-free queries.
//
//	go run ./examples/weighted
package main

import (
	"fmt"
	"log"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/workload"
)

func main() {
	const triples = 50000
	g := datagen.WatDiv{}.Generate(triples, 1)
	fmt.Println("dataset:", g.Stats())

	// The query log whose properties we want to keep join-free.
	log1 := workload.WatDivLog(g, 300, 1)
	var queries []*sparql.Query
	for _, q := range log1 {
		queries = append(queries, q.Query)
	}
	weights := core.WeightsFromWorkload(g, queries)
	fmt.Printf("query log: %d queries touching %d distinct properties\n\n",
		len(log1), len(weights))

	opts := partition.Options{K: 8, Epsilon: 0.1, Seed: 1}
	selectors := []core.Selector{
		core.GreedySelector{},
		core.WeightedGreedySelector{Weights: weights},
	}
	fmt.Printf("%-18s %10s %10s %12s\n", "selector", "|L_in|", "|L_cross|", "IEQ share")
	for _, sel := range selectors {
		res, err := (core.MPC{Selector: sel}).PartitionFull(g, opts)
		if err != nil {
			log.Fatal(err)
		}
		share := workload.IEQShare(log1, res.CrossingTest())
		fmt.Printf("%-18s %10d %10d %11.1f%%\n",
			sel.Name(), len(res.LIn), res.NumCrossingProperties(), 100*share)
	}
	fmt.Println("\nThe weighted selector sacrifices property count for workload")
	fmt.Println("coverage: more crossing properties overall, but the ones the log")
	fmt.Println("actually queries stay internal, so far more queries skip joins.")
}
