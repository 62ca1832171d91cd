package bench

import (
	"context"
	"sync/atomic"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/dsf"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/workload"
)

// AblationSelectorRow compares internal-property selectors (the design
// choice of Sec. IV-C/E): forward greedy (Algorithm 1), reverse greedy, and
// exact (where feasible).
type AblationSelectorRow struct {
	Dataset    string
	Selector   string
	LIn        int
	LCross     int
	ECross     int
	SelectTime time.Duration
}

// RunAblationSelectors runs all three selectors on LUBM and YAGO2 (and the
// two greedy variants on DBpedia, where exact search is infeasible).
// Expected shape: exact ≥ forward ≈ reverse in |L_in|; reverse pays more
// time on property-rich graphs.
func RunAblationSelectors(cfg Config) ([]AblationSelectorRow, error) {
	cfg = cfg.withDefaults()
	var rows []AblationSelectorRow
	type sel struct {
		s    core.Selector
		name string
	}
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.YAGO2{}, datagen.DBpedia{}} {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		sels := []sel{
			{core.GreedySelector{}, "greedy"},
			{core.ReverseGreedySelector{}, "reverse-greedy"},
		}
		if g.NumProperties() <= 24 {
			sels = append(sels, sel{core.ExactSelector{}, "exact"})
		}
		for _, s := range sels {
			t0 := time.Now()
			p, err := (core.MPC{Selector: s.s}).PartitionFull(g, cfg.opts())
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationSelectorRow{
				Dataset:    gen.Name(),
				Selector:   s.name,
				LIn:        len(p.LIn),
				LCross:     p.NumCrossingProperties(),
				ECross:     p.NumCrossingEdges(),
				SelectTime: time.Since(t0),
			})
		}
	}
	return rows, nil
}

// AblationDSFRow compares the incremental disjoint-set-forest evaluation of
// Cost(L_in ∪ {p}) (Sec. IV-D) against naive recomputation of the WCCs from
// scratch for every candidate.
type AblationDSFRow struct {
	Method     string
	SelectTime time.Duration
	LIn        int
}

// RunAblationDSF measures the paper's claimed benefit of the disjoint-set
// forest optimization. Expected shape: the rollback-DSF selector is several
// times faster than naive recomputation at equal output quality.
func RunAblationDSF(cfg Config) ([]AblationDSFRow, error) {
	cfg = cfg.withDefaults()
	// The naive baseline is quadratic in practice; a modest graph is enough
	// to show the gap without dominating the suite's runtime.
	triples := cfg.Triples
	if triples > 10000 {
		triples = 10000
	}
	g := datagen.YAGO2{}.Generate(triples, cfg.Seed)
	cap := cfg.opts().Cap(g.NumVertices())

	t0 := time.Now()
	fast := core.GreedySelector{}.SelectInternal(g, cap)
	fastTime := time.Since(t0)

	t1 := time.Now()
	naive := naiveGreedySelect(g, cap)
	naiveTime := time.Since(t1)

	return []AblationDSFRow{
		{Method: "rollback-DSF (Sec. IV-D)", SelectTime: fastTime, LIn: len(fast)},
		{Method: "naive WCC recomputation", SelectTime: naiveTime, LIn: len(naive)},
	}, nil
}

// naiveGreedySelect is Algorithm 1 without the disjoint-set forest reuse:
// every candidate evaluation recomputes WCC(G[L_in ∪ {p}]) from scratch.
func naiveGreedySelect(g *rdf.Graph, cap int) []rdf.PropertyID {
	remaining := make(map[rdf.PropertyID]bool, g.NumProperties())
	for p := 0; p < g.NumProperties(); p++ {
		remaining[rdf.PropertyID(p)] = true
	}
	var lin []rdf.PropertyID
	for len(remaining) > 0 {
		best := rdf.PropertyID(0)
		bestCost := int32(1<<31 - 1)
		found := false
		for p := range remaining {
			f := dsf.New(g.NumVertices())
			for _, q := range lin {
				for _, ti := range g.PropertyTriples(q) {
					t := g.Triple(ti)
					f.Union(int32(t.S), int32(t.O))
				}
			}
			for _, ti := range g.PropertyTriples(p) {
				t := g.Triple(ti)
				f.Union(int32(t.S), int32(t.O))
			}
			if int(f.MaxComponentSize()) <= cap &&
				(f.MaxComponentSize() < bestCost || (f.MaxComponentSize() == bestCost && p < best)) {
				best, bestCost, found = p, f.MaxComponentSize(), true
			}
		}
		if !found {
			break
		}
		lin = append(lin, best)
		delete(remaining, best)
	}
	return lin
}

// AblationKHopRow records the space cost of k-hop replication (background
// Sec. I-A: "this increases the space cost"), per replication radius.
type AblationKHopRow struct {
	Dataset          string
	Hops             int
	ReplicationRatio float64
}

// RunAblationKHop expands the MPC partitioning of LUBM and YAGO2 to 1-, 2-
// and 3-hop replication and reports the storage blow-up, quantifying why
// the paper (and this reproduction) sticks to 1-hop.
func RunAblationKHop(cfg Config) ([]AblationKHopRow, error) {
	cfg = cfg.withDefaults()
	var rows []AblationKHopRow
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.YAGO2{}} {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		p, err := (core.MPC{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, err
		}
		for hops := 1; hops <= 3; hops++ {
			l, err := partition.KHopExpand(p, hops)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationKHopRow{
				Dataset:          gen.Name(),
				Hops:             hops,
				ReplicationRatio: l.ReplicationRatio(),
			})
		}
	}
	return rows, nil
}

// AblationSemijoinRow compares shipped tuples and latency with and without
// the distributed semijoin reduction, per strategy, on the DBpedia log.
type AblationSemijoinRow struct {
	Strategy      string
	Semijoin      bool
	TuplesShipped int
	TotalTime     time.Duration
}

// RunAblationSemijoin measures the run-time optimization the paper cites
// from AdPart/WORQ, on the DBpedia workload. Expected shape: semijoin cuts
// shipped tuples sharply for every strategy (it is a strong patch), and MPC
// ships the least even unpatched because most of its queries never enter
// the join phase. The two levers compose — run-time optimizations are
// orthogonal to the partitioning, as Sec. II argues.
func RunAblationSemijoin(cfg Config) ([]AblationSemijoinRow, error) {
	cfg = cfg.withDefaults()
	g := datagen.DBpedia{}.Generate(cfg.Triples, cfg.Seed)
	qs := workloadFor(datagen.DBpedia{}, g, cfg)

	mpcP, err := (core.MPC{}).Partition(g, cfg.opts())
	if err != nil {
		return nil, err
	}
	hashP, err := (partition.SubjectHash{}).Partition(g, cfg.opts())
	if err != nil {
		return nil, err
	}
	var rows []AblationSemijoinRow
	for _, semijoin := range []bool{false, true} {
		for _, sc := range []struct {
			name     string
			p        *partition.Partitioning
			crossing sparql.CrossingTest // nil: the plain star-only baseline
		}{
			{StratMPC, mpcP, mpcP.CrossingTest()},
			{StratHash, hashP, nil},
		} {
			c, err := cluster.New(sc.p, sc.crossing, cluster.Config{Semijoin: semijoin})
			if err != nil {
				return nil, err
			}
			row := AblationSemijoinRow{Strategy: sc.name, Semijoin: semijoin}
			for _, q := range qs {
				res, err := c.Execute(q.Query)
				if err != nil {
					return nil, err
				}
				row.TuplesShipped += res.Stats.TuplesShipped
				row.TotalTime += modeledStats(c, res).Total()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblationWeightedRow compares unweighted and workload-weighted MPC.
type AblationWeightedRow struct {
	Selector string
	LCross   int
	IEQShare float64
}

// RunAblationWeighted evaluates the weighted-MPC extension the paper's
// related-work section sketches: selection driven by query-log property
// frequencies. Expected shape: the weighted variant never lowers — and on
// contended graphs raises — the workload IEQ share, possibly at the price
// of more crossing properties overall.
func RunAblationWeighted(cfg Config) ([]AblationWeightedRow, error) {
	cfg = cfg.withDefaults()
	g := datagen.WatDiv{}.Generate(cfg.Triples, cfg.Seed)
	qs := workloadFor(datagen.WatDiv{}, g, cfg)
	var queries []*sparql.Query
	for _, q := range qs {
		queries = append(queries, q.Query)
	}
	weights := core.WeightsFromWorkload(g, queries)

	var rows []AblationWeightedRow
	for _, sel := range []struct {
		name string
		s    core.Selector
	}{
		{"greedy (unweighted)", core.GreedySelector{}},
		{"weighted-greedy", core.WeightedGreedySelector{Weights: weights}},
	} {
		p, err := (core.MPC{Selector: sel.s}).Partition(g, cfg.opts())
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationWeightedRow{
			Selector: sel.name,
			LCross:   p.NumCrossingProperties(),
			IEQShare: workload.IEQShare(qs, p.CrossingTest()),
		})
	}
	return rows, nil
}

// AblationLocalizeRow compares broadcast IEQ execution (the paper's model:
// every site evaluates every subquery; Config.Broadcast) with localized
// execution (the cluster default, Sec. V-B2 future work: constant-anchored
// IEQs run only at the constant's home).
type AblationLocalizeRow struct {
	// Localize is false for the broadcast arm, true for the localized one.
	Localize bool
	// SiteTime sums the durations of all site calls: the cluster's total
	// site work, which parallel wall-clock latency would hide behind the
	// slowest site.
	SiteTime time.Duration
	// SiteCalls counts the site calls (one batch exchange with one site).
	SiteCalls int64
	Queries   int
	// answers holds each query's sorted-result digest, to compare the arms.
	answers []string
}

// RunAblationLocalize measures query localization on the LUBM benchmark
// queries that carry constants. Every site call is timed (timedSite), so
// the row reports total site work and call count while the fan-out stays
// parallel: localization saves work at the skipped sites. Expected shape:
// identical results with fewer site calls and lower total work when on.
func RunAblationLocalize(cfg Config) ([]AblationLocalizeRow, error) {
	cfg = cfg.withDefaults()
	g := datagen.LUBM{}.Generate(cfg.Triples, cfg.Seed)
	p, err := (core.MPC{}).Partition(g, cfg.opts())
	if err != nil {
		return nil, err
	}
	stores := make([]*store.Store, p.NumSites())
	for i := range stores {
		stores[i] = store.New(g, p.SiteTriples(i))
	}
	qs := workload.LUBMQueries(g, cfg.Seed)
	var rows []AblationLocalizeRow
	for _, localize := range []bool{false, true} {
		var work timedWork
		sites := make([]cluster.Site, len(stores))
		for i, st := range stores {
			sites[i] = timedSite{cluster.SiteForStore(st).(cluster.BatchSite), &work}
		}
		c, err := cluster.NewWithSites(p, p.CrossingTest(), cluster.Config{Broadcast: !localize}, sites)
		if err != nil {
			return nil, err
		}
		row := AblationLocalizeRow{Localize: localize}
		for _, q := range qs {
			// Only constant-anchored queries can be localized; unanchored
			// ones would dilute the measurement with identical work.
			if !hasConstantVertex(q.Query) {
				continue
			}
			res, err := c.Execute(q.Query)
			if err != nil {
				return nil, err
			}
			// Localizing changes which sites answer, so the rows may come
			// in another order: compare them sorted.
			res.Table.SortRows()
			row.answers = append(row.answers, tableDigest(res))
			row.Queries++
		}
		row.SiteTime, row.SiteCalls = time.Duration(work.nanos.Load()), work.calls.Load()
		rows = append(rows, row)
	}
	return rows, nil
}

// timedWork accumulates the site calls of one cluster.
type timedWork struct{ calls, nanos atomic.Int64 }

// timedSite is a site that adds each call's count and duration to work.
type timedSite struct {
	cluster.BatchSite
	work *timedWork
}

func (s timedSite) ExecuteSub(ctx context.Context, sub *sparql.Query, opts cluster.SubOpts) (*store.Table, cluster.SubStats, error) {
	defer s.work.add(time.Now())
	return s.BatchSite.ExecuteSub(ctx, sub, opts)
}

func (s timedSite) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts cluster.SubOpts) ([]*store.Table, cluster.SubStats, error) {
	defer s.work.add(time.Now())
	return s.BatchSite.ExecuteSubBatch(ctx, subs, opts)
}

// add records one call that started at t0.
func (w *timedWork) add(t0 time.Time) {
	w.nanos.Add(int64(time.Since(t0)))
	w.calls.Add(1)
}

func hasConstantVertex(q *sparql.Query) bool {
	for _, tp := range q.Patterns {
		if !tp.S.IsVar || !tp.O.IsVar {
			return true
		}
	}
	return false
}

// AblationEpsilonKRow records MPC quality as k and ε vary.
type AblationEpsilonKRow struct {
	K       int
	Epsilon float64
	LCross  int
	ECross  int
	Balance float64
}

// RunAblationEpsilonK sweeps the two knobs of Definition 4.1 on LUBM.
// Expected shape: larger k or tighter ε shrink the component-size cap, so
// fewer properties fit internally and |L_cross| grows.
func RunAblationEpsilonK(cfg Config) ([]AblationEpsilonKRow, error) {
	cfg = cfg.withDefaults()
	g := datagen.LUBM{}.Generate(cfg.Triples, cfg.Seed)
	var rows []AblationEpsilonKRow
	for _, k := range []int{2, 4, 8, 16} {
		for _, eps := range []float64{0.02, 0.1, 0.3} {
			p, err := (core.MPC{}).Partition(g, partition.Options{K: k, Epsilon: eps, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationEpsilonKRow{
				K: k, Epsilon: eps,
				LCross:  p.NumCrossingProperties(),
				ECross:  p.NumCrossingEdges(),
				Balance: p.Imbalance(),
			})
		}
	}
	return rows, nil
}
