package cluster

import (
	"context"
	"testing"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/workload"
)

// BenchmarkExecuteLUBMScan measures the coordinator's merge of large
// per-site answers: an in-process 8-site MPC cluster over ≈100k LUBM
// triples runs LQ14 (a star IEQ with a large result), GQ1 (OPTIONAL: two
// IEQ leaves and a left join) and GQ2 (UNION of two single-pattern IEQs).
// Each IEQ's per-site answers are merged by anchor, so ns/op and
// allocs/op follow the merge and fold kernels, not a hash union.
func BenchmarkExecuteLUBMScan(b *testing.B) {
	g := datagen.LUBM{}.Generate(100_000, 1)
	p, err := core.MPC{}.Partition(g, partition.Options{K: 8, Epsilon: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		b.Fatal(err)
	}
	var named []workload.NamedQuery
	for _, nq := range workload.LUBMQueries(g, 1) {
		if nq.Name == "LQ14" {
			named = append(named, nq)
		}
	}
	for _, nq := range workload.SPARQL11Queries(g, 1) {
		if nq.Name == "GQ1" || nq.Name == "GQ2" {
			named = append(named, nq)
		}
	}
	if len(named) != 3 {
		b.Fatalf("found %d of LQ14, GQ1, GQ2", len(named))
	}
	ctx := context.Background()
	for _, nq := range named {
		plan := c.Plan(nq.Query)
		b.Run(nq.Name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := c.ExecutePlan(ctx, plan)
				if err != nil {
					b.Fatal(err)
				}
				rows = res.Table.Len()
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
