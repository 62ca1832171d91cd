package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/datagen"
	"mpc/internal/obs"
	"mpc/internal/sparql"
	"mpc/internal/workload"
)

// ClassLatency is the latency distribution of one query class within one
// (dataset, strategy) combination, digested from the per-class total-time
// histograms the cluster records (query.total_ns.<class>).
type ClassLatency struct {
	Class   string  `json:"class"`
	Count   int64   `json:"count"`
	MeanNS  float64 `json:"mean_ns"`
	P50NS   int64   `json:"p50_ns"`
	P95NS   int64   `json:"p95_ns"`
	TotalNS int64   `json:"total_ns"`
}

// JoinShape summarizes the pairwise hash joins of one combination: how big
// the build and probe sides were and how many rows the joins produced.
type JoinShape struct {
	HashJoins  int64 `json:"hash_joins"`
	BuildP50   int64 `json:"build_rows_p50"`
	BuildP95   int64 `json:"build_rows_p95"`
	ProbeP50   int64 `json:"probe_rows_p50"`
	ProbeP95   int64 `json:"probe_rows_p95"`
	OutputP50  int64 `json:"output_rows_p50"`
	OutputP95  int64 `json:"output_rows_p95"`
	OutputRows int64 `json:"output_rows_total"`
}

// OnlineCombo is one (dataset, strategy) cell of the online experiment.
type OnlineCombo struct {
	Dataset  string `json:"dataset"`
	Strategy string `json:"strategy"`
	Queries  int    `json:"queries"`
	// Executions is Queries × Repeats: every workload query runs Repeats
	// times so the histograms have enough mass for stable quantiles.
	Executions    int64          `json:"executions"`
	ResultRows    int64          `json:"result_rows"`
	TuplesShipped int64          `json:"tuples_shipped"`
	ClassLatency  []ClassLatency `json:"class_latency"`
	// OperatorLatency splits the same total-time histogram by operator
	// class instead of executability class: "bgp", "optional", "union",
	// "path", "filter" (sparql.Query.OperatorClass, fed by the GQ1–GQ6
	// generalized workload alongside the plain benchmark queries).
	OperatorLatency []ClassLatency `json:"operator_latency"`
	Joins           JoinShape      `json:"joins"`
}

// OnlineMicro is one testing.Benchmark measurement of an end-to-end query
// execution: the allocation gate of the columnar join path.
type OnlineMicro struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	N           int    `json:"n"`
}

// OnlineResult is the full online-path experiment written to
// BENCH_online.json: per-query-class latency quantiles and join shapes for
// every (dataset, strategy) combination, plus allocation microbenchmarks.
type OnlineResult struct {
	Triples int           `json:"triples"`
	K       int           `json:"k"`
	Epsilon float64       `json:"epsilon"`
	Seed    int64         `json:"seed"`
	Repeats int           `json:"repeats"`
	Combos  []OnlineCombo `json:"combos"`
	Micro   []OnlineMicro `json:"micro"`
	// Transport is every combination re-run over loopback TCP sites:
	// verified bit-identical, with measured traffic and RPC quantiles.
	Transport TransportSection `json:"transport"`
}

// onlineStrategies is the lineup the online experiment compares: the paper's
// system, the hash baseline, and the vertical-partitioning baseline.
var onlineStrategies = []string{StratMPC, StratHash, StratVP}

// onlineRepeats is how many times each workload query runs per combination.
const onlineRepeats = 3

// RunOnline measures the online query path over the LUBM and WatDiv
// workloads for MPC, Subject_Hash and VP. Each combination gets a fresh
// metrics registry, so its class-latency histograms and join shapes are not
// polluted by the other cells. Alongside the registry-derived numbers it
// runs testing.Benchmark microbenchmarks on representative queries to
// record ns/op, B/op and allocs/op of end-to-end execution.
func RunOnline(cfg Config) (*OnlineResult, error) {
	cfg = cfg.withDefaults()
	res := &OnlineResult{
		Triples: cfg.Triples,
		K:       cfg.K,
		Epsilon: cfg.Epsilon,
		Seed:    cfg.Seed,
		Repeats: onlineRepeats,
	}
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.WatDiv{}} {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		// The dataset's benchmark workload plus the generalized GQ1–GQ6
		// queries, so every operator-class histogram gains mass.
		queries := append(workloadFor(gen, g, cfg), workload.SPARQL11Queries(g, cfg.Seed)...)
		for _, strat := range onlineStrategies {
			comboCfg := cfg
			comboCfg.Obs = obs.NewRegistry()
			built, err := buildClusters(g, comboCfg, map[string]bool{strat: true})
			if err != nil {
				return nil, fmt.Errorf("online %s/%s: %w", gen.Name(), strat, err)
			}
			if len(built) != 1 {
				return nil, fmt.Errorf("online %s/%s: got %d clusters, want 1", gen.Name(), strat, len(built))
			}
			c := built[0].c
			combo := OnlineCombo{Dataset: gen.Name(), Strategy: strat, Queries: len(queries)}
			for r := 0; r < onlineRepeats; r++ {
				for _, nq := range queries {
					out, err := c.Execute(nq.Query)
					if err != nil {
						return nil, fmt.Errorf("online %s/%s %s: %w", gen.Name(), strat, nq.Name, err)
					}
					combo.Executions++
					combo.ResultRows += int64(out.Table.Len())
				}
			}
			snap := comboCfg.Obs.Snapshot()
			combo.TuplesShipped = snap.Counters["net.tuples_shipped"]
			combo.ClassLatency = classLatencies(snap)
			combo.OperatorLatency = operatorLatencies(snap)
			combo.Joins = joinShape(snap)
			res.Combos = append(res.Combos, combo)

			tc, err := runTransportCombo(built[0], gen.Name(), queries)
			if err != nil {
				return nil, fmt.Errorf("online transport %s/%s: %w", gen.Name(), strat, err)
			}
			res.Transport.Combos = append(res.Transport.Combos, tc)

			// Microbenchmark representative queries end to end on the MPC
			// cluster only: one join-heavy (decomposed) query and one
			// independently executable one, when the workload has them.
			if strat == StratMPC {
				for _, mq := range pickMicroQueries(c, queries) {
					res.Micro = append(res.Micro, runMicro(gen.Name(), c, mq))
				}
			}
		}
	}
	return res, nil
}

// classLatencies digests the per-class total-time histograms of a snapshot,
// in class-enum order, skipping classes the workload never hit.
func classLatencies(snap *obs.Snapshot) []ClassLatency {
	var out []ClassLatency
	for c := sparql.ClassInternal; c <= sparql.ClassNonIEQ; c++ {
		h, ok := snap.Histograms["query.total_ns."+c.String()]
		if !ok || h.Count == 0 {
			continue
		}
		out = append(out, ClassLatency{
			Class:   c.String(),
			Count:   h.Count,
			MeanNS:  h.Mean,
			P50NS:   h.P50,
			P95NS:   h.P95,
			TotalNS: h.Sum,
		})
	}
	return out
}

// operatorLatencies digests the per-operator-class total-time histograms of
// a snapshot, in sparql.OperatorClasses order, skipping classes the workload
// never hit.
func operatorLatencies(snap *obs.Snapshot) []ClassLatency {
	var out []ClassLatency
	for _, op := range sparql.OperatorClasses {
		h, ok := snap.Histograms["query.total_ns."+op]
		if !ok || h.Count == 0 {
			continue
		}
		out = append(out, ClassLatency{
			Class:   op,
			Count:   h.Count,
			MeanNS:  h.Mean,
			P50NS:   h.P50,
			P95NS:   h.P95,
			TotalNS: h.Sum,
		})
	}
	return out
}

// joinShape digests the join build/probe/output histograms of a snapshot.
func joinShape(snap *obs.Snapshot) JoinShape {
	build := snap.Histograms["join.build_rows"]
	probe := snap.Histograms["join.probe_rows"]
	output := snap.Histograms["join.output_rows"]
	return JoinShape{
		HashJoins:  snap.Counters["join.hash_joins"],
		BuildP50:   build.P50,
		BuildP95:   build.P95,
		ProbeP50:   probe.P50,
		ProbeP95:   probe.P95,
		OutputP50:  output.P50,
		OutputP95:  output.P95,
		OutputRows: output.Sum,
	}
}

// pickMicroQueries selects up to two representative workload queries: the
// first that decomposes into multiple subqueries (exercising the join path)
// and the first that executes independently (exercising only the matcher).
func pickMicroQueries(c *cluster.Cluster, queries []workload.NamedQuery) []workload.NamedQuery {
	var joinQ, ieqQ *workload.NamedQuery
	for i := range queries {
		out, err := c.Execute(queries[i].Query)
		if err != nil {
			continue
		}
		if out.Stats.NumSubqueries > 1 && joinQ == nil {
			joinQ = &queries[i]
		}
		if out.Stats.Independent && ieqQ == nil {
			ieqQ = &queries[i]
		}
		if joinQ != nil && ieqQ != nil {
			break
		}
	}
	var out []workload.NamedQuery
	if joinQ != nil {
		out = append(out, *joinQ)
	}
	if ieqQ != nil {
		out = append(out, *ieqQ)
	}
	return out
}

// runMicro benchmarks one end-to-end query execution with testing.Benchmark.
func runMicro(dataset string, c *cluster.Cluster, nq workload.NamedQuery) OnlineMicro {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Execute(nq.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	return OnlineMicro{
		Name:        dataset + "/" + StratMPC + "/" + nq.Name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
}

// WriteOnlineJSON writes the result as indented JSON to path.
func WriteOnlineJSON(path string, res *OnlineResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderOnline writes the human-readable online-path tables.
func RenderOnline(w io.Writer, res *OnlineResult) {
	var cells [][]string
	for _, combo := range res.Combos {
		for _, cl := range combo.ClassLatency {
			cells = append(cells, []string{
				combo.Dataset, combo.Strategy, cl.Class,
				fmt.Sprint(cl.Count),
				fmt.Sprintf("%.1f", cl.MeanNS/1e3),
				fmt.Sprintf("%.1f", float64(cl.P50NS)/1e3),
				fmt.Sprintf("%.1f", float64(cl.P95NS)/1e3),
			})
		}
	}
	title := fmt.Sprintf("Online path: %d triples, k=%d, %d repeats per query",
		res.Triples, res.K, res.Repeats)
	WriteTable(w, title,
		[]string{"dataset", "strategy", "class", "execs", "mean_us", "p50_us", "p95_us"},
		cells)

	cells = cells[:0]
	for _, combo := range res.Combos {
		for _, cl := range combo.OperatorLatency {
			cells = append(cells, []string{
				combo.Dataset, combo.Strategy, cl.Class,
				fmt.Sprint(cl.Count),
				fmt.Sprintf("%.1f", cl.MeanNS/1e3),
				fmt.Sprintf("%.1f", float64(cl.P50NS)/1e3),
				fmt.Sprintf("%.1f", float64(cl.P95NS)/1e3),
			})
		}
	}
	WriteTable(w, "Per-operator-class latency (OPTIONAL/UNION/FILTER/paths vs plain BGPs)",
		[]string{"dataset", "strategy", "operator", "execs", "mean_us", "p50_us", "p95_us"},
		cells)

	cells = cells[:0]
	for _, combo := range res.Combos {
		j := combo.Joins
		cells = append(cells, []string{
			combo.Dataset, combo.Strategy,
			fmt.Sprint(j.HashJoins),
			fmt.Sprint(j.BuildP50), fmt.Sprint(j.BuildP95),
			fmt.Sprint(j.ProbeP50), fmt.Sprint(j.ProbeP95),
			fmt.Sprint(j.OutputP50), fmt.Sprint(j.OutputP95),
			fmt.Sprint(combo.TuplesShipped),
		})
	}
	WriteTable(w, "Join shapes (rows)",
		[]string{"dataset", "strategy", "joins", "build_p50", "build_p95",
			"probe_p50", "probe_p95", "out_p50", "out_p95", "shipped"},
		cells)

	RenderTransport(w, &res.Transport)

	if len(res.Micro) > 0 {
		micro := append([]OnlineMicro(nil), res.Micro...)
		sort.Slice(micro, func(i, j int) bool { return micro[i].Name < micro[j].Name })
		cells = cells[:0]
		for _, m := range micro {
			cells = append(cells, []string{
				m.Name, fmt.Sprint(m.NsPerOp), fmt.Sprint(m.BytesPerOp), fmt.Sprint(m.AllocsPerOp),
			})
		}
		WriteTable(w, "End-to-end microbenchmarks (testing.Benchmark)",
			[]string{"query", "ns_op", "B_op", "allocs_op"}, cells)
	}
}
