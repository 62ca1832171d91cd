// Command mpc-query loads an N-Triples graph, partitions it across a
// cluster, and executes a SPARQL BGP query, reporting the executability
// class, the per-stage times (QDT/LET/JT) and the results.
//
// The cluster is in-process by default (sites as goroutines, shipping
// simulated). With -sites the query runs over real mpc-site processes
// serving the snapshots mpc-partition -export-snapshots wrote: load the
// same input, reproduce the same layout (-assign, or the same -k/-seed/
// -strategy), and the reported network numbers are measured, not
// simulated. A layout that does not match what the sites serve is refused
// at connect time.
//
// Usage:
//
//	mpc-query -in lubm.nt -k 8 -strategy MPC -query 'SELECT ?x WHERE { ... }'
//	mpc-query -in lubm.nt -query-file q.rq -limit 20
//	mpc-query -in lubm.nt -assign parts/assignment.txt -sites :7070,:7071,:7072,:7073 -query-file q.rq
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/dataio"
	"mpc/internal/oracle"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/transport"
)

func main() {
	in := flag.String("in", "", "input N-Triples file (required)")
	k := flag.Int("k", 4, "number of sites")
	epsilon := flag.Float64("epsilon", 0.1, "maximum imbalance ratio ε")
	strategy := flag.String("strategy", "MPC", "MPC, Subject_Hash, METIS, or VP")
	queryStr := flag.String("query", "", "SPARQL BGP query text")
	queryFile := flag.String("query-file", "", "file containing the query")
	limit := flag.Int("limit", 10, "max result rows to print (0 = all)")
	seed := flag.Int64("seed", 1, "seed for randomized phases")
	assign := flag.String("assign", "", "reuse a saved vertex assignment (assignment.txt from mpc-partition) instead of partitioning")
	semijoin := flag.Bool("semijoin", false, "enable the distributed semijoin reduction for inter-partition joins")
	partialEval := flag.Bool("partial-eval", false, "use the partitioning-agnostic gStoreD-style partial-evaluation engine (vertex-disjoint strategies only, in-process only)")
	sites := flag.String("sites", "", "comma-separated mpc-site addresses (each serving its -snapshot of this layout); when set, the query runs against these processes instead of in-process stores (their count overrides -k)")
	digest := flag.Bool("digest", false, "print the canonical result digest (oracle.Canonicalize; equal digests mean bit-identical result sets)")
	flag.Parse()

	if *in == "" || (*queryStr == "" && *queryFile == "") {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *k, *epsilon, *strategy, *queryStr, *queryFile, *limit, *seed, *assign, *semijoin, *partialEval, *sites, *digest); err != nil {
		fmt.Fprintln(os.Stderr, "mpc-query:", err)
		os.Exit(1)
	}
}

func run(in string, k int, epsilon float64, strategy, queryStr, queryFile string, limit int, seed int64, assignPath string, semijoin, partialEval bool, sites string, digest bool) error {
	if queryFile != "" {
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		queryStr = string(data)
	}
	q, err := sparql.Parse(queryStr)
	if err != nil {
		return err
	}

	g, err := dataio.LoadFile(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %s\n", g.Stats())

	var addrs []string
	if sites != "" {
		for _, a := range strings.Split(sites, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return fmt.Errorf("-sites given but no addresses parsed")
		}
		k = len(addrs)
	}

	opts := partition.Options{K: k, Epsilon: epsilon, Seed: seed}
	cfg := cluster.Config{Semijoin: semijoin}
	var layout partition.SiteLayout
	var crossing sparql.CrossingTest

	switch {
	case assignPath != "":
		af, err := os.Open(assignPath)
		if err != nil {
			return err
		}
		p, err := partition.ReadAssignment(af, g)
		af.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "reused assignment: %s\n", p.Summary())
		layout, crossing = p, p.CrossingTest()
	default:
		switch strategy {
		case "MPC":
			p, err := (core.MPC{}).Partition(g, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "MPC partitioning: %s\n", p.Summary())
			layout, crossing = p, p.CrossingTest()
		case "Subject_Hash":
			p, err := (partition.SubjectHash{}).Partition(g, opts)
			if err != nil {
				return err
			}
			layout = p // no crossing test: the plain star-only baseline
		case "METIS":
			p, err := (partition.MinEdgeCut{}).Partition(g, opts)
			if err != nil {
				return err
			}
			layout = p // no crossing test: the plain star-only baseline
		case "VP":
			l, err := (partition.VP{}).Partition(g, opts)
			if err != nil {
				return err
			}
			layout = l
		default:
			return fmt.Errorf("unknown strategy %q", strategy)
		}
	}

	var c *cluster.Cluster
	if len(addrs) > 0 {
		clients, err := transport.Connect(addrs, transport.ClientOptions{})
		if err != nil {
			return err
		}
		defer transport.CloseAll(clients)
		if err := transport.Verify(clients, layout); err != nil {
			return err
		}
		c, err = cluster.NewWithSites(layout, crossing, cfg, transport.Sites(clients))
		if err != nil {
			return err
		}
	} else {
		c, err = cluster.New(layout, crossing, cfg)
		if err != nil {
			return err
		}
	}
	return reportWith(g, c, q, limit, partialEval, digest)
}

// reportWith executes q (with the standard or the partial-evaluation
// engine) and prints the stage breakdown plus result rows.
func reportWith(g *rdf.Graph, c *cluster.Cluster, q *sparql.Query, limit int, partialEval, digest bool) error {
	var res *cluster.Result
	var err error
	if partialEval {
		res, err = c.ExecutePartialEval(q)
	} else {
		res, err = c.Execute(q)
	}
	if err != nil {
		return err
	}
	s := res.Stats
	fmt.Printf("class: %s  independent: %v  subqueries: %d\n", s.Class, s.Independent, s.NumSubqueries)
	fmt.Printf("QDT: %v  LET: %v  JT: %v (%d tuples shipped)  total: %v\n",
		s.DecompTime, s.LocalTime, s.JoinTime, s.TuplesShipped, s.Total())
	if c.Remote() {
		fmt.Printf("wire: %d bytes shipped, %v summed round-trip time\n", s.BytesShipped, s.WireTime)
	}
	fmt.Printf("results: %d rows\n", res.Table.Len())
	if digest {
		fmt.Printf("digest: %016x\n", oracle.Canonicalize(res.Table).Digest())
	}
	printRows(g, res.Table, limit)
	return nil
}

// printRows renders up to limit binding rows (0 = all).
func printRows(g *rdf.Graph, tab *store.Table, limit int) {
	total := tab.Len()
	n := total
	if limit > 0 && n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		for j, v := range tab.Vars {
			var val string
			switch {
			case tab.At(i, j) == store.NullID:
				// Unbound OPTIONAL cells carry the null sentinel, not a
				// dictionary ID.
				val = "∅"
			case tab.Kinds[j] == store.KindProperty:
				val = g.Properties.String(tab.At(i, j))
			default:
				val = g.Vertices.String(tab.At(i, j))
			}
			fmt.Printf("  ?%s = %s", v, val)
		}
		fmt.Println()
	}
	if n < total {
		fmt.Printf("  ... and %d more rows\n", total-n)
	}
}
