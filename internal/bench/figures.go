package bench

import (
	"fmt"
	"sort"
	"time"

	"mpc/internal/datagen"
)

// Fig7Row is one bar group of Fig. 7: a benchmark query's end-to-end time
// under every strategy, on one dataset.
type Fig7Row struct {
	Dataset string
	Query   string
	Star    bool
	// Times maps strategy name → total simulated latency.
	Times map[string]time.Duration
}

// RunFig7 reproduces Fig. 7: per-query online performance on LUBM, YAGO2
// and Bio2RDF under MPC, Subject_Hash, METIS and VP. Expected shape: all
// vertex-disjoint strategies tie on star queries; on non-star queries that
// are IEQs only under MPC (LQ2/7/9/12, YQ1–4, BQ4) MPC wins by a wide
// margin; VP is generally worst.
func RunFig7(cfg Config) ([]Fig7Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig7Row
	gens := []datagen.Generator{datagen.LUBM{}, datagen.YAGO2{}, datagen.Bio2RDF{}}
	only := map[string]bool{StratMPC: true, StratHash: true, StratMETIS: true, StratVP: true}
	for _, gen := range gens {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		built, err := buildClusters(g, cfg, only)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gen.Name(), err)
		}
		qs := workloadFor(gen, g, cfg)
		for _, q := range qs {
			row := Fig7Row{
				Dataset: gen.Name(),
				Query:   q.Name,
				Star:    q.Star(),
				Times:   make(map[string]time.Duration, len(built)),
			}
			for _, b := range built {
				res, err := b.c.Execute(q.Query)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", gen.Name(), b.name, q.Name, err)
				}
				row.Times[b.name] = modeledStats(b.c, res).Total()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig8Row is one box of Fig. 8: the five-number summary of query-log
// response times for one (dataset, strategy) pair.
type Fig8Row struct {
	Dataset  string
	Strategy string
	Min      time.Duration
	Q1       time.Duration
	Median   time.Duration
	Q3       time.Duration
	Max      time.Duration
	Queries  int
}

// RunFig8 reproduces Fig. 8: response-time distributions over sampled query
// logs on WatDiv, DBpedia and LGD. Expected shape: minima and first
// quartiles are similar across vertex-disjoint strategies (the common IEQs),
// medians/maxima diverge sharply in MPC's favor (it localizes more
// queries), the gap is smallest on WatDiv, and VP has the worst tail.
func RunFig8(cfg Config) ([]Fig8Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig8Row
	gens := []datagen.Generator{datagen.WatDiv{}, datagen.DBpedia{}, datagen.LGD{}}
	only := map[string]bool{StratMPC: true, StratHash: true, StratMETIS: true, StratVP: true}
	for _, gen := range gens {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		built, err := buildClusters(g, cfg, only)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gen.Name(), err)
		}
		qs := workloadFor(gen, g, cfg)
		for _, b := range built {
			times := make([]time.Duration, 0, len(qs))
			for _, q := range qs {
				res, err := b.c.Execute(q.Query)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", gen.Name(), b.name, q.Name, err)
				}
				times = append(times, modeledStats(b.c, res).Total())
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			rows = append(rows, Fig8Row{
				Dataset:  gen.Name(),
				Strategy: b.name,
				Min:      times[0],
				Q1:       times[len(times)/4],
				Median:   times[len(times)/2],
				Q3:       times[3*len(times)/4],
				Max:      times[len(times)-1],
				Queries:  len(times),
			})
		}
	}
	return rows, nil
}

// ScaleRow is one point of Figs. 9 and 10: offline and online performance
// at one dataset scale.
type ScaleRow struct {
	Dataset      string
	Triples      int
	Partitioning time.Duration // Fig. 9: MPC partitioning time
	Loading      time.Duration
	AvgQuery     time.Duration // Fig. 10: mean workload latency under MPC
}

// RunScalability reproduces Figs. 9 and 10: MPC offline (partitioning +
// loading) and online (average query latency) performance as the LUBM and
// WatDiv sizes grow. The paper sweeps 100M→10B triples; the configured
// Scales default to a compressed laptop-sized sweep. Expected shape: both
// offline and online times grow roughly linearly — clearly sublinearly in
// the data blow-up — confirming scalability.
func RunScalability(cfg Config) ([]ScaleRow, error) {
	cfg = cfg.withDefaults()
	var rows []ScaleRow
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.WatDiv{}} {
		for _, scale := range cfg.Scales {
			scaledCfg := cfg
			scaledCfg.Triples = scale
			g := gen.Generate(scale, cfg.Seed)
			built, err := buildClusters(g, scaledCfg, map[string]bool{StratMPC: true})
			if err != nil {
				return nil, fmt.Errorf("%s@%d: %w", gen.Name(), scale, err)
			}
			b := built[0]
			qs := workloadFor(gen, g, scaledCfg)
			var total time.Duration
			for _, q := range qs {
				res, err := b.c.Execute(q.Query)
				if err != nil {
					return nil, fmt.Errorf("%s@%d/%s: %w", gen.Name(), scale, q.Name, err)
				}
				total += modeledStats(b.c, res).Total()
			}
			rows = append(rows, ScaleRow{
				Dataset:      gen.Name(),
				Triples:      g.NumTriples(),
				Partitioning: b.partitionTime,
				Loading:      b.loadTime,
				AvgQuery:     total / time.Duration(len(qs)),
			})
		}
	}
	return rows, nil
}

// Fig11Row is one bar of Fig. 11: a non-star benchmark query's time under a
// partitioning-agnostic execution engine (the gStoreD analogue: every
// non-IEQ is decomposed and joined, whatever the partitioning), for the
// three vertex-disjoint partitionings.
type Fig11Row struct {
	Dataset        string
	Query          string
	Strategy       string
	Time           time.Duration
	PartialMatches int // intermediate tuples shipped — gStoreD's local partial matches
}

// RunFig11 reproduces Fig. 11: MPC vs Subject_Hash vs METIS as drop-in
// partitionings for a partitioning-agnostic system — the gStoreD
// partial-evaluation-and-assembly engine (cluster.ExecutePartialEval),
// which uses no crossing-property knowledge. Compared on the non-star
// benchmark queries of LUBM and YAGO2. Expected shape: fewer crossing
// properties under MPC mean fewer local partial matches to assemble and
// the lowest times.
func RunFig11(cfg Config) ([]Fig11Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig11Row
	only := map[string]bool{StratMPC: true, StratHashPlus: true, StratMETISP: true}
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.YAGO2{}} {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		built, err := buildClusters(g, cfg, only)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gen.Name(), err)
		}
		for _, q := range workloadFor(gen, g, cfg) {
			if q.Star() {
				continue // Fig. 11 compares non-star queries only
			}
			for _, b := range built {
				res, err := b.c.ExecutePartialEval(q.Query)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", gen.Name(), b.name, q.Name, err)
				}
				name := b.name
				if name == StratHashPlus {
					name = StratHash
				}
				if name == StratMETISP {
					name = StratMETIS
				}
				rows = append(rows, Fig11Row{
					Dataset:        gen.Name(),
					Query:          q.Name,
					Strategy:       name,
					Time:           modeledStats(b.c, res).Total(),
					PartialMatches: res.Stats.TuplesShipped,
				})
			}
		}
	}
	return rows, nil
}
