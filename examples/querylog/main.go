// Query-log comparison: sample a DBpedia-like query log and run it under
// all four partitioning strategies, printing the latency distribution each
// produces — a runnable miniature of the paper's Fig. 8.
//
//	go run ./examples/querylog
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/workload"
)

func main() {
	const triples = 50000
	const nQueries = 150
	g := datagen.DBpedia{}.Generate(triples, 1)
	fmt.Println("dataset:", g.Stats())
	queries := workload.DBpediaLog(g, nQueries, 1)
	fmt.Printf("query log: %d queries, %.1f%% stars\n\n",
		len(queries), 100*workload.StarShare(queries))

	opts := partition.Options{K: 4, Epsilon: 0.1, Seed: 1}

	type entry struct {
		name string
		c    *cluster.Cluster
	}
	var clusters []entry

	mpcPart, err := (core.MPC{}).Partition(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	mpcC, err := cluster.NewFromPartitioning(mpcPart, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	clusters = append(clusters, entry{"MPC", mpcC})

	hashPart, err := (partition.SubjectHash{}).Partition(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	hashC, err := cluster.New(hashPart, nil, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	clusters = append(clusters, entry{"Subject_Hash", hashC})

	metisPart, err := (partition.MinEdgeCut{}).Partition(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	metisC, err := cluster.New(metisPart, nil, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	clusters = append(clusters, entry{"METIS", metisC})

	vpLayout, err := (partition.VP{}).Partition(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	vpC, err := cluster.New(vpLayout, nil, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	clusters = append(clusters, entry{"VP", vpC})

	fmt.Printf("%-14s %10s %10s %10s %10s %10s %8s\n",
		"strategy", "min", "Q1", "median", "Q3", "max", "IEQs")
	for _, e := range clusters {
		times := make([]time.Duration, 0, len(queries))
		independent := 0
		for _, q := range queries {
			res, err := e.c.Execute(q.Query)
			if err != nil {
				log.Fatalf("%s/%s: %v", e.name, q.Name, err)
			}
			times = append(times, res.Stats.Total())
			if res.Stats.Independent {
				independent++
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		fmt.Printf("%-14s %10v %10v %10v %10v %10v %7.1f%%\n",
			e.name,
			times[0].Round(time.Microsecond),
			times[len(times)/4].Round(time.Microsecond),
			times[len(times)/2].Round(time.Microsecond),
			times[3*len(times)/4].Round(time.Microsecond),
			times[len(times)-1].Round(time.Microsecond),
			100*float64(independent)/float64(len(queries)))
	}
}
