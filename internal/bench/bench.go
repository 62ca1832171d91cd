// Package bench is the experiment harness: one runner per table and figure
// of the MPC paper's evaluation section (Tables II–VII, Figures 7–11), plus
// the ablations called out in DESIGN.md. Each runner builds the needed
// datasets, partitionings and clusters, executes the workload, and returns
// typed rows that cmd/mpc-bench renders and bench_test.go wraps as Go
// benchmarks.
//
// Absolute numbers differ from the paper (the substrate is an in-process
// simulator whose shipping cost modeledStats models per tuple, and the
// datasets are scaled three orders of magnitude down), but
// each runner reproduces the paper's qualitative shape: who wins, by
// roughly what factor, and where the crossovers are.
package bench

import (
	"fmt"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/workload"
)

// Config scales the experiments. The zero value is usable: it maps to the
// defaults below, sized so the full suite runs in minutes on a laptop.
type Config struct {
	// Triples is the default dataset size (default 50,000 — the paper's
	// default is 100M–4B; the shape survives the scale-down).
	Triples int
	// K is the number of sites (default 8, like the paper's cluster).
	K int
	// Epsilon is the balance slack (default 0.1).
	Epsilon float64
	// Seed drives data generation and randomized partitioning.
	Seed int64
	// LogQueries is the query-log sample size (default 200; the paper
	// samples 1,000).
	LogQueries int
	// Scales are the dataset sizes for the scalability experiments
	// (default 25k, 50k, 100k — a compressed version of the paper's
	// 100M→1B→10B sweep).
	Scales []int
	// Workers bounds the concurrency of the parallel offline phases
	// (0 = runtime.NumCPU(), 1 = serial). Results are identical for every
	// value; see partition.Options.Workers.
	Workers int
	// Obs, when non-nil, collects offline-stage and query-execution metrics
	// from every partitioner and cluster the runners build. It never changes
	// results; see internal/obs.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Triples == 0 {
		c.Triples = 50000
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LogQueries == 0 {
		c.LogQueries = 200
	}
	if len(c.Scales) == 0 {
		c.Scales = []int{25000, 50000, 100000}
	}
	return c
}

func (c Config) opts() partition.Options {
	return partition.Options{K: c.K, Epsilon: c.Epsilon, Seed: c.Seed, Workers: c.Workers, Obs: c.Obs}
}

// Strategy names, in the paper's table order.
const (
	StratMPC      = "MPC"
	StratHash     = "Subject_Hash"
	StratHashPlus = "Subject_Hash+"
	StratMETIS    = "METIS"
	StratMETISP   = "METIS+"
	StratVP       = "VP"
)

// VertexDisjointStrategies returns the vertex-disjoint partitioners keyed
// by strategy name (the "+" variants share the base partitioning).
func VertexDisjointStrategies() map[string]partition.Partitioner {
	return map[string]partition.Partitioner{
		StratMPC:   core.MPC{},
		StratHash:  partition.SubjectHash{},
		StratMETIS: partition.MinEdgeCut{},
	}
}

// netCostPerTuple is the paper's shipping model: moving one intermediate
// tuple to the coordinator costs 2µs — its MPICH testbed reduced to a
// constant.
const netCostPerTuple = 2 * time.Microsecond

// modeledStats returns res's statistics with the modeled shipping cost,
// TuplesShipped × netCostPerTuple, added to JoinTime: the JT (and total)
// that Tables IV/V, Figs. 7–11 and the semijoin ablation report. Only an
// in-process cluster is charged; a remote cluster's shipping is measured,
// already inside its LocalTime.
func modeledStats(c *cluster.Cluster, res *cluster.Result) cluster.Stats {
	s := res.Stats
	if !c.Remote() {
		s.JoinTime += time.Duration(s.TuplesShipped) * netCostPerTuple
	}
	return s
}

// builtCluster bundles a cluster with its offline timings plus the layout
// ingredients needed to rebuild the same coordinator over remote sites: a
// nil crossing test rebuilds a plain baseline, or VP over a VPLayout.
type builtCluster struct {
	name          string
	c             *cluster.Cluster
	partitionTime time.Duration
	loadTime      time.Duration

	layout   partition.SiteLayout
	crossing sparql.CrossingTest
}

// buildClusters constructs the full strategy lineup over one graph:
// MPC, Subject_Hash (star-only), Subject_Hash+ (crossing-aware), METIS,
// METIS+, and VP. Strategies may be restricted with only (nil = all).
func buildClusters(g *rdf.Graph, cfg Config, only map[string]bool) ([]builtCluster, error) {
	want := func(s string) bool { return only == nil || only[s] }
	var out []builtCluster

	// add builds a crossing-aware cluster, or with a nil crossing test the
	// plain star-only baseline.
	add := func(name string, p *partition.Partitioning, crossing sparql.CrossingTest, ptime time.Duration) error {
		c, err := cluster.New(p, crossing, cluster.Config{Obs: cfg.Obs})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, builtCluster{name: name, c: c, partitionTime: ptime, loadTime: c.LoadTime,
			layout: p, crossing: crossing})
		return nil
	}

	if want(StratMPC) {
		t0 := time.Now()
		p, err := (core.MPC{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, fmt.Errorf("MPC: %w", err)
		}
		if err := add(StratMPC, p, p.CrossingTest(), time.Since(t0)); err != nil {
			return nil, err
		}
	}
	if want(StratHash) || want(StratHashPlus) {
		t0 := time.Now()
		p, err := (partition.SubjectHash{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, fmt.Errorf("Subject_Hash: %w", err)
		}
		ptime := time.Since(t0)
		if want(StratHash) {
			if err := add(StratHash, p, nil, ptime); err != nil {
				return nil, err
			}
		}
		if want(StratHashPlus) {
			if err := add(StratHashPlus, p, p.CrossingTest(), ptime); err != nil {
				return nil, err
			}
		}
	}
	if want(StratMETIS) || want(StratMETISP) {
		t0 := time.Now()
		p, err := (partition.MinEdgeCut{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, fmt.Errorf("METIS: %w", err)
		}
		ptime := time.Since(t0)
		if want(StratMETIS) {
			if err := add(StratMETIS, p, nil, ptime); err != nil {
				return nil, err
			}
		}
		if want(StratMETISP) {
			if err := add(StratMETISP, p, p.CrossingTest(), ptime); err != nil {
				return nil, err
			}
		}
	}
	if want(StratVP) {
		t0 := time.Now()
		l, err := (partition.VP{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, fmt.Errorf("VP: %w", err)
		}
		ptime := time.Since(t0)
		c, err := cluster.New(l, nil, cluster.Config{Obs: cfg.Obs})
		if err != nil {
			return nil, fmt.Errorf("VP: %w", err)
		}
		out = append(out, builtCluster{name: StratVP, c: c, partitionTime: ptime, loadTime: c.LoadTime,
			layout: l})
	}
	return out, nil
}

// workloadFor returns the benchmark workload of a dataset family.
func workloadFor(gen datagen.Generator, g *rdf.Graph, cfg Config) []workload.NamedQuery {
	switch gen.Name() {
	case "LUBM":
		return workload.LUBMQueries(g, cfg.Seed)
	case "YAGO2":
		return workload.YAGO2Queries(g, cfg.Seed)
	case "Bio2RDF":
		return workload.Bio2RDFQueries(g, cfg.Seed)
	case "WatDiv":
		return workload.WatDivLog(g, cfg.LogQueries, cfg.Seed)
	case "DBpedia":
		return workload.DBpediaLog(g, cfg.LogQueries, cfg.Seed)
	default: // LGD
		return workload.LGDLog(g, cfg.LogQueries, cfg.Seed)
	}
}
