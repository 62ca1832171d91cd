package workload

import (
	"math"
	"testing"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

func TestLUBMQueriesShape(t *testing.T) {
	g := datagen.LUBM{}.Generate(20000, 1)
	qs := LUBMQueries(g, 1)
	if len(qs) != 14 {
		t.Fatalf("LUBM queries = %d, want 14", len(qs))
	}
	if s := StarShare(qs); math.Abs(s-10.0/14) > 1e-9 {
		for _, q := range qs {
			t.Logf("%s star=%v", q.Name, q.Star())
		}
		t.Fatalf("star share = %.4f, want %.4f", s, 10.0/14)
	}
	// All parse and are weakly connected.
	for _, q := range qs {
		if !q.Query.IsWeaklyConnected() {
			t.Errorf("%s is not weakly connected", q.Name)
		}
	}
}

func TestLUBMQueriesAllIEQUnderMPC(t *testing.T) {
	g := datagen.LUBM{}.Generate(20000, 1)
	p, err := core.MPC{}.Partition(g, partition.Options{K: 4, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs := LUBMQueries(g, 1)
	ct := p.CrossingTest()
	for _, q := range qs {
		if c := sparql.Classify(q.Query, ct); !c.IsIEQ() {
			t.Errorf("%s is %v under MPC, want IEQ (crossing props: %d)",
				q.Name, c, p.NumCrossingProperties())
		}
	}
	// Under star-only baselines exactly the 10 stars are IEQs.
	n := 0
	for _, q := range qs {
		if sparql.ClassifyPlain(q.Query).IsIEQ() {
			n++
		}
	}
	if n != 10 {
		t.Errorf("star-only IEQs = %d, want 10", n)
	}
}

func TestYAGO2Queries(t *testing.T) {
	g := datagen.YAGO2{}.Generate(20000, 1)
	qs := YAGO2Queries(g, 1)
	if len(qs) != 4 {
		t.Fatalf("YAGO2 queries = %d, want 4", len(qs))
	}
	if s := StarShare(qs); s != 0 {
		t.Fatalf("star share = %.2f, want 0", s)
	}
	p, err := core.MPC{}.Partition(g, partition.Options{K: 4, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := IEQShare(qs, p.CrossingTest()); s != 1.0 {
		t.Fatalf("MPC IEQ share = %.2f, want 1.0", s)
	}
	// None are IEQs for star-only systems.
	for _, q := range qs {
		if sparql.ClassifyPlain(q.Query).IsIEQ() {
			t.Errorf("%s is a star; YAGO2 queries must all be non-star", q.Name)
		}
	}
}

func TestBio2RDFQueries(t *testing.T) {
	g := datagen.Bio2RDF{}.Generate(30000, 1)
	qs := Bio2RDFQueries(g, 1)
	if len(qs) != 5 {
		t.Fatalf("Bio2RDF queries = %d, want 5", len(qs))
	}
	if s := StarShare(qs); math.Abs(s-0.8) > 1e-9 {
		t.Fatalf("star share = %.2f, want 0.8", s)
	}
	p, err := core.MPC{}.Partition(g, partition.Options{K: 4, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := IEQShare(qs, p.CrossingTest()); s != 1.0 {
		for _, q := range qs {
			t.Logf("%s: %v", q.Name, sparql.Classify(q.Query, p.CrossingTest()))
		}
		t.Fatalf("MPC IEQ share = %.2f, want 1.0", s)
	}
}

func TestLogSamplerSizes(t *testing.T) {
	wg := datagen.WatDiv{}.Generate(20000, 1)
	dg := datagen.DBpedia{}.Generate(20000, 1)
	lg := datagen.LGD{}.Generate(20000, 1)
	for _, tc := range []struct {
		name string
		qs   []NamedQuery
	}{
		{"watdiv", WatDivLog(wg, 200, 1)},
		{"dbpedia", DBpediaLog(dg, 200, 1)},
		{"lgd", LGDLog(lg, 200, 1)},
	} {
		if len(tc.qs) != 200 {
			t.Errorf("%s: %d queries, want 200", tc.name, len(tc.qs))
		}
		for _, q := range tc.qs {
			if len(q.Query.Patterns) == 0 {
				t.Errorf("%s: empty query %s", tc.name, q.Name)
			}
		}
	}
}

func TestLogStarShares(t *testing.T) {
	wg := datagen.WatDiv{}.Generate(20000, 1)
	dg := datagen.DBpedia{}.Generate(20000, 1)
	lg := datagen.LGD{}.Generate(20000, 1)
	cases := []struct {
		name     string
		qs       []NamedQuery
		lo, hi   float64
		paperRef float64
	}{
		{"watdiv", WatDivLog(wg, 500, 1), 0.42, 0.58, 0.50},
		{"dbpedia", DBpediaLog(dg, 500, 1), 0.39, 0.55, 0.4687},
		{"lgd", LGDLog(lg, 500, 1), 0.93, 1.0, 0.9695},
	}
	for _, tc := range cases {
		s := StarShare(tc.qs)
		if s < tc.lo || s > tc.hi {
			t.Errorf("%s star share = %.3f, want in [%.2f,%.2f] (paper: %.4f)",
				tc.name, s, tc.lo, tc.hi, tc.paperRef)
		}
	}
}

// TestTable3Ordering checks the headline of Table III on each log dataset:
// MPC's IEQ share strictly dominates the star-only baselines'.
func TestTable3Ordering(t *testing.T) {
	cases := []struct {
		gen datagen.Generator
		log func(*rdf.Graph, int, int64) []NamedQuery
	}{
		{datagen.WatDiv{}, WatDivLog},
		{datagen.DBpedia{}, DBpediaLog},
		{datagen.LGD{}, LGDLog},
	}
	for _, tc := range cases {
		g := tc.gen.Generate(20000, 1)
		qs := tc.log(g, 300, 2)
		p, err := core.MPC{}.Partition(g, partition.Options{K: 4, Epsilon: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mpcShare := IEQShare(qs, p.CrossingTest())
		starShare := StarShare(qs)
		if mpcShare <= starShare {
			t.Errorf("%s: MPC IEQ share %.3f not above star share %.3f",
				tc.gen.Name(), mpcShare, starShare)
		}
		t.Logf("%s: MPC=%.3f star-only=%.3f", tc.gen.Name(), mpcShare, starShare)
	}
}
