package bench

import (
	"fmt"
	"time"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/workload"
)

// Table2Row is one (dataset, strategy) cell pair of Table II: the number of
// crossing properties and crossing edges of a vertex-disjoint partitioning.
type Table2Row struct {
	Dataset  string
	Strategy string
	LCross   int
	ECross   int
}

// RunTable2 reproduces Table II: |L_cross| and |E^c| for MPC, Subject_Hash
// and METIS over all six datasets. Expected shape: MPC has by far the
// fewest crossing properties everywhere, even where it cuts more edges than
// METIS.
func RunTable2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	for _, gen := range datagen.All() {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		for _, strat := range []string{StratMPC, StratHash, StratMETIS} {
			p, err := VertexDisjointStrategies()[strat].Partition(g, cfg.opts())
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", gen.Name(), strat, err)
			}
			rows = append(rows, Table2Row{
				Dataset:  gen.Name(),
				Strategy: strat,
				LCross:   p.NumCrossingProperties(),
				ECross:   p.NumCrossingEdges(),
			})
		}
	}
	return rows, nil
}

// Table3Row is one dataset row of Table III: the percentage of IEQs in the
// workload under each strategy, plus the star-query share for reference.
type Table3Row struct {
	Dataset      string
	MPC          float64
	VP           float64
	Plain        float64 // Subject_Hash / METIS (stars only)
	SubjHashPlus float64
	METISPlus    float64
	StarShare    float64
}

// RunTable3 reproduces Table III: the fraction of independently executable
// queries per strategy. Expected shape: MPC strictly dominates; the "+"
// variants add a little over the plain star-only baselines; VP trails.
func RunTable3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table3Row
	for _, gen := range datagen.All() {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		qs := workloadFor(gen, g, cfg)
		row := Table3Row{Dataset: gen.Name(), StarShare: workload.StarShare(qs)}

		mpcP, err := (core.MPC{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, err
		}
		row.MPC = workload.IEQShare(qs, mpcP.CrossingTest())

		hashP, err := (partition.SubjectHash{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, err
		}
		row.SubjHashPlus = workload.IEQShare(qs, hashP.CrossingTest())

		metisP, err := (partition.MinEdgeCut{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, err
		}
		row.METISPlus = workload.IEQShare(qs, metisP.CrossingTest())

		row.Plain = row.StarShare // stars are exactly the plain systems' IEQs

		vpL, err := (partition.VP{}).Partition(g, cfg.opts())
		if err != nil {
			return nil, err
		}
		n := 0
		for _, q := range qs {
			if vpIndependent(q.Query, vpL) {
				n++
			}
		}
		row.VP = float64(n) / float64(len(qs))

		rows = append(rows, row)
	}
	return rows, nil
}

// vpIndependent reports whether a query is independently executable under a
// VP layout: no variable properties, and every constant property stored at
// the same site.
func vpIndependent(q *sparql.Query, l *partition.VPLayout) bool {
	g := l.Graph()
	site := int32(-1)
	for _, tp := range q.Patterns {
		if tp.P.IsVar {
			return false
		}
		pid, ok := g.Properties.Lookup(tp.P.Value)
		if !ok {
			continue // unknown property: matches nothing anywhere
		}
		s := l.SiteOf(rdf.PropertyID(pid))
		if site == -1 {
			site = s
		} else if s != site {
			return false
		}
	}
	return true
}

// StageRow is one query column of Tables IV and V: the per-stage times of
// executing a benchmark query on the MPC cluster.
type StageRow struct {
	Query   string
	Class   sparql.Class
	QDT     time.Duration // query decomposition time
	LET     time.Duration // local evaluation time
	JT      time.Duration // join time (incl. simulated shipping)
	Total   time.Duration
	Results int
}

// RunTable4 reproduces Table IV: per-stage evaluation of LQ1–LQ14 on the
// MPC-partitioned LUBM cluster. Expected shape: JT is zero for every query
// (all 14 are IEQs under MPC), QDT is small and uniform, and LET varies
// with query complexity and selectivity.
func RunTable4(cfg Config) ([]StageRow, error) {
	cfg = cfg.withDefaults()
	return runStages(datagen.LUBM{}, cfg)
}

// RunTable5 reproduces Table V: per-stage evaluation of YQ1–YQ4 (YAGO2) and
// BQ1–BQ5 (Bio2RDF) on the MPC clusters. Same expected shape as Table IV.
func RunTable5(cfg Config) (yago, bio []StageRow, err error) {
	cfg = cfg.withDefaults()
	yago, err = runStages(datagen.YAGO2{}, cfg)
	if err != nil {
		return nil, nil, err
	}
	bio, err = runStages(datagen.Bio2RDF{}, cfg)
	if err != nil {
		return nil, nil, err
	}
	return yago, bio, nil
}

func runStages(gen datagen.Generator, cfg Config) ([]StageRow, error) {
	g := gen.Generate(cfg.Triples, cfg.Seed)
	built, err := buildClusters(g, cfg, map[string]bool{StratMPC: true})
	if err != nil {
		return nil, err
	}
	qs := workloadFor(gen, g, cfg)
	rows := make([]StageRow, 0, len(qs))
	for _, q := range qs {
		res, err := built[0].c.Execute(q.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		s := modeledStats(built[0].c, res)
		rows = append(rows, StageRow{
			Query:   q.Name,
			Class:   s.Class,
			QDT:     s.DecompTime,
			LET:     s.LocalTime,
			JT:      s.JoinTime,
			Total:   s.Total(),
			Results: res.Table.Len(),
		})
	}
	return rows, nil
}

// Table6Row is one (dataset, strategy) row of Table VI: offline
// partitioning and loading times.
type Table6Row struct {
	Dataset      string
	Strategy     string
	Partitioning time.Duration
	Loading      time.Duration
	Total        time.Duration
}

// RunTable6 reproduces Table VI. Expected shape: hashing partitioners are
// fastest, MPC and METIS pay a modest partitioning premium, and loading
// dominates the total everywhere, so the offline gap stays tolerable.
func RunTable6(cfg Config) ([]Table6Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table6Row
	only := map[string]bool{StratMPC: true, StratHash: true, StratVP: true, StratMETIS: true}
	for _, gen := range datagen.All() {
		g := gen.Generate(cfg.Triples, cfg.Seed)
		built, err := buildClusters(g, cfg, only)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gen.Name(), err)
		}
		for _, b := range built {
			rows = append(rows, Table6Row{
				Dataset:      gen.Name(),
				Strategy:     b.name,
				Partitioning: b.partitionTime,
				Loading:      b.loadTime,
				Total:        b.partitionTime + b.loadTime,
			})
		}
	}
	return rows, nil
}

// Table7Row is one row of Table VII: greedy vs exact internal-property
// selection on LUBM.
type Table7Row struct {
	Strategy     string
	LCross       int
	ECross       int
	Partitioning time.Duration
}

// RunTable7 reproduces Table VII: MPC's greedy Algorithm 1 against the
// exact branch-and-bound selector on LUBM (the only dataset with few enough
// properties for exact search). Expected shape: the greedy result is within
// about one crossing property of optimal, at lower partitioning cost.
func RunTable7(cfg Config) ([]Table7Row, error) {
	cfg = cfg.withDefaults()
	g := datagen.LUBM{}.Generate(cfg.Triples, cfg.Seed)
	var rows []Table7Row
	for _, m := range []core.MPC{{}, {Selector: core.ExactSelector{}}} {
		t0 := time.Now()
		p, err := m.Partition(g, cfg.opts())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table7Row{
			Strategy:     m.Name(),
			LCross:       p.NumCrossingProperties(),
			ECross:       p.NumCrossingEdges(),
			Partitioning: time.Since(t0),
		})
	}
	return rows, nil
}
