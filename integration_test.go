package mpc_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/workload"
)

// TestEndToEndPipeline is the repository's integration test: for every
// dataset family it generates data, partitions it with every strategy,
// builds the simulated cluster, runs the dataset's benchmark workload, and
// checks every distributed answer against whole-graph evaluation.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	const triples = 15000
	opts := partition.Options{K: 4, Epsilon: 0.15, Seed: 1}

	for _, gen := range datagen.All() {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			g := gen.Generate(triples, 1)
			idx := make([]int32, g.NumTriples())
			for i := range idx {
				idx[i] = int32(i)
			}
			whole := store.New(g, idx)

			var queries []workload.NamedQuery
			switch gen.Name() {
			case "LUBM":
				queries = workload.LUBMQueries(g, 1)
			case "YAGO2":
				queries = workload.YAGO2Queries(g, 1)
			case "Bio2RDF":
				queries = workload.Bio2RDFQueries(g, 1)
			case "WatDiv":
				queries = workload.WatDivLog(g, 25, 1)
			case "DBpedia":
				queries = workload.DBpediaLog(g, 25, 1)
			default:
				queries = workload.LGDLog(g, 25, 1)
			}

			clusters := map[string]*cluster.Cluster{}

			mpcP, err := (core.MPC{}).Partition(g, opts)
			if err != nil {
				t.Fatalf("MPC partition: %v", err)
			}
			if c, err := cluster.NewFromPartitioning(mpcP, cluster.Config{}); err == nil {
				clusters["MPC"] = c
			} else {
				t.Fatal(err)
			}
			hashP, err := (partition.SubjectHash{}).Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c, err := cluster.New(hashP, nil, cluster.Config{}); err == nil {
				clusters["Subject_Hash"] = c
			} else {
				t.Fatal(err)
			}
			metisP, err := (partition.MinEdgeCut{}).Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c, err := cluster.New(metisP, nil, cluster.Config{Semijoin: true}); err == nil {
				clusters["METIS+semijoin"] = c
			} else {
				t.Fatal(err)
			}
			vpL, err := (partition.VP{}).Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c, err := cluster.New(vpL, nil, cluster.Config{}); err == nil {
				clusters["VP"] = c
			} else {
				t.Fatal(err)
			}

			for _, q := range queries {
				want, err := whole.Match(q.Query)
				if err != nil {
					t.Fatalf("%s: whole-graph eval: %v", q.Name, err)
				}
				// Cluster results are projected to the SELECT clause;
				// project the expected side identically.
				wantSet := canonical(want, q.Query.Select)
				for name, c := range clusters {
					res, err := c.Execute(q.Query)
					if err != nil {
						t.Fatalf("%s on %s: %v", q.Name, name, err)
					}
					if got := canonical(res.Table, q.Query.Select); !sameSet(got, wantSet) {
						t.Errorf("%s on %s: %d rows vs %d expected",
							q.Name, name, res.Table.Len(), want.Len())
					}
				}
			}
		})
	}
}

// canonical renders a table as a set of rows keyed by sorted var=value
// pairs (IDs suffice: all stores share dictionaries). When select is
// non-empty, only those variables participate, matching SELECT projection.
func canonical(t *store.Table, selectVars []string) map[string]bool {
	keep := map[string]bool{}
	for _, v := range selectVars {
		keep[v] = true
	}
	out := make(map[string]bool, t.Len())
	for r := 0; r < t.Len(); r++ {
		var parts []string
		for i, v := range t.Vars {
			if len(keep) > 0 && !keep[v] {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s=%d", v, t.At(r, i)))
		}
		sort.Strings(parts)
		out[strings.Join(parts, ";")] = true
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestOnlineResultsBitIdentical is the golden determinism test of the
// columnar join path: executing the full LUBM and WatDiv workloads twice,
// on independently built clusters of every strategy, must produce
// bit-identical result tables — same schema, same flat data, same row
// order — not merely the same row sets. This pins the deterministic join
// order, the a-major join output, the sorted semijoin passes, and the
// integer-key dedup all at once.
func TestOnlineResultsBitIdentical(t *testing.T) {
	const triples = 15000
	opts := partition.Options{K: 4, Epsilon: 0.15, Seed: 1}

	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.WatDiv{}} {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			g := gen.Generate(triples, 1)
			var queries []workload.NamedQuery
			if gen.Name() == "LUBM" {
				queries = workload.LUBMQueries(g, 1)
			} else {
				queries = workload.WatDivLog(g, 25, 1)
			}

			build := func() map[string]*cluster.Cluster {
				t.Helper()
				out := map[string]*cluster.Cluster{}
				p, err := (core.MPC{}).Partition(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if out["MPC"], err = cluster.NewFromPartitioning(p, cluster.Config{}); err != nil {
					t.Fatal(err)
				}
				hp, err := (partition.SubjectHash{}).Partition(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if out["Subject_Hash"], err = cluster.New(hp, nil,
					cluster.Config{Semijoin: true}); err != nil {
					t.Fatal(err)
				}
				vl, err := (partition.VP{}).Partition(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if out["VP"], err = cluster.New(vl, nil, cluster.Config{}); err != nil {
					t.Fatal(err)
				}
				return out
			}

			digest := func(cs map[string]*cluster.Cluster) map[string]string {
				t.Helper()
				out := map[string]string{}
				for name, c := range cs {
					var sb strings.Builder
					for _, q := range queries {
						res, err := c.Execute(q.Query)
						if err != nil {
							t.Fatalf("%s on %s: %v", q.Name, name, err)
						}
						fmt.Fprintf(&sb, "%s|%v|%v|%v|%d\n",
							q.Name, res.Table.Vars, res.Table.Kinds, res.Table.Data, res.Table.Len())
					}
					out[name] = sb.String()
				}
				return out
			}

			first := digest(build())
			second := digest(build())
			for name := range first {
				if first[name] != second[name] {
					t.Errorf("%s: result tables differ between runs (non-deterministic online path)", name)
				}
			}
		})
	}
}

// TestTheoremsHoldOnRealWorkloads re-checks the paper's theorems on
// realistic data: star queries are always IEQs (Theorem 5), and internal
// IEQs have zero join time on MPC clusters (Theorem 3).
func TestTheoremsHoldOnRealWorkloads(t *testing.T) {
	g := datagen.LUBM{}.Generate(15000, 2)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 4, Epsilon: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	crossing := p.CrossingTest()
	c, err := cluster.NewFromPartitioning(p, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.LUBMQueries(g, 2) {
		class := sparql.Classify(q.Query, crossing)
		if q.Query.IsStar() && !class.IsIEQ() {
			t.Errorf("%s: star query classified %v (violates Theorem 5)", q.Name, class)
		}
		res, err := c.Execute(q.Query)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Independent && res.Stats.JoinTime != 0 {
			t.Errorf("%s: independent execution with nonzero join time %v",
				q.Name, res.Stats.JoinTime)
		}
	}
}
