package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mpc/internal/core"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// movieGraph mirrors the paper's running example: two communities of
// entities joined by birthPlace edges.
func movieGraph() *rdf.Graph {
	g := rdf.NewGraph()
	// Community 1: films and people.
	g.AddTriple("film1", "starring", "actor1")
	g.AddTriple("film1", "starring", "actor2")
	g.AddTriple("film2", "starring", "actor2")
	g.AddTriple("film1", "chronology", "film2")
	g.AddTriple("actor1", "spouse", "actor2")
	// Community 2: places.
	g.AddTriple("city1", "foundingDate", "d1")
	g.AddTriple("city2", "foundingDate", "d2")
	g.AddTriple("person1", "residence", "city1")
	g.AddTriple("person2", "residence", "city2")
	g.AddTriple("person1", "spouse", "person2")
	// Crossing property: birthPlace.
	g.AddTriple("actor1", "birthPlace", "city1")
	g.AddTriple("actor2", "birthPlace", "city2")
	g.Freeze()
	return g
}

func fullStore(g *rdf.Graph) *store.Store {
	idx := make([]int32, g.NumTriples())
	for i := range idx {
		idx[i] = int32(i)
	}
	return store.New(g, idx)
}

// rowSet renders a table as a sorted set of "var=value" strings, so results
// from different execution paths compare structurally.
func rowSet(g *rdf.Graph, t *store.Table) []string {
	out := make([]string, 0, t.Len())
	for r := 0; r < t.Len(); r++ {
		parts := make([]string, len(t.Vars))
		for i, v := range t.Vars {
			var val string
			if t.Kinds[i] == store.KindProperty {
				val = g.Properties.String(t.At(r, i))
			} else {
				val = g.Vertices.String(t.At(r, i))
			}
			parts[i] = v + "=" + val
		}
		sort.Strings(parts)
		out = append(out, fmt.Sprint(parts))
	}
	sort.Strings(out)
	// Dedup (set semantics for comparison).
	dedup := out[:0]
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			dedup = append(dedup, s)
		}
	}
	return dedup
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mpcCluster(t *testing.T, g *rdf.Graph, k int) *Cluster {
	t.Helper()
	p, err := core.MPC{}.Partition(g, partition.Options{K: k, Epsilon: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIEQExecution(t *testing.T) {
	g := movieGraph()
	c := mpcCluster(t, g, 2)
	// A non-star query avoiding birthPlace: internal IEQ under MPC.
	q := sparql.MustParse(`SELECT * WHERE {
		?f <starring> ?a . ?a <spouse> ?b . ?f <chronology> ?f2 }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Independent {
		t.Fatalf("query should be independent, class = %v", res.Stats.Class)
	}
	if res.Stats.TuplesShipped != 0 {
		t.Fatalf("IEQ shipped %d tuples", res.Stats.TuplesShipped)
	}
	if res.Stats.NumSubqueries != 1 {
		t.Fatalf("IEQ split into %d subqueries", res.Stats.NumSubqueries)
	}
	// Validate against whole-graph evaluation.
	want, err := fullStore(g).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
		t.Fatalf("cluster rows != whole-graph rows:\n%v\n%v",
			rowSet(g, res.Table), rowSet(g, want))
	}
	if res.Table.Len() == 0 {
		t.Fatal("expected nonempty result")
	}
}

func TestNonIEQDecomposedExecution(t *testing.T) {
	g := movieGraph()
	c := mpcCluster(t, g, 2)
	// Connects the two communities through two birthPlace edges — the WCCs
	// after removing birthPlace are both multi-vertex → non-IEQ.
	q := sparql.MustParse(`SELECT * WHERE {
		?f <starring> ?a . ?f <starring> ?a2 .
		?a <birthPlace> ?c . ?a2 <birthPlace> ?c2 .
		?p <residence> ?c . ?p <spouse> ?p2 }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullStore(g).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
		t.Fatalf("decomposed execution wrong:\ngot  %v\nwant %v",
			rowSet(g, res.Table), rowSet(g, want))
	}
	if res.Stats.Independent {
		t.Fatal("query should not be independent")
	}
	if res.Stats.NumSubqueries < 2 {
		t.Fatalf("expected decomposition, got %d subqueries", res.Stats.NumSubqueries)
	}
}

func TestStarQueryIndependentEverywhere(t *testing.T) {
	g := movieGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a . ?f <chronology> ?f2 }`)

	for _, plain := range []bool{false, true} {
		p, err := partition.SubjectHash{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		crossing := p.CrossingTest()
		if plain {
			crossing = nil
		}
		c, err := New(p, crossing, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Independent {
			t.Fatalf("plain=%v: star query not independent", plain)
		}
		want, _ := fullStore(g).Match(q)
		if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
			t.Fatalf("plain=%v: wrong star result", plain)
		}
	}
}

func TestStarOnlyModeDecomposesNonStars(t *testing.T) {
	g := movieGraph()
	p, err := partition.SubjectHash{}.Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Path query: not a star → star decomposition + join under StarOnly.
	q := sparql.MustParse(`SELECT * WHERE {
		?f <starring> ?a . ?a <birthPlace> ?c . ?c <foundingDate> ?d }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Independent {
		t.Fatal("path query independent under star-only mode")
	}
	if res.Stats.NumSubqueries != 3 {
		t.Fatalf("star decomposition size = %d, want 3", res.Stats.NumSubqueries)
	}
	want, _ := fullStore(g).Match(q)
	if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
		t.Fatalf("star-only execution wrong:\ngot  %v\nwant %v",
			rowSet(g, res.Table), rowSet(g, want))
	}
	if res.Stats.TuplesShipped == 0 {
		t.Fatal("non-IEQ execution should ship tuples")
	}
}

func TestVPExecution(t *testing.T) {
	g := movieGraph()
	layout, err := partition.VP{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(layout, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT * WHERE { ?f <starring> ?a }`,
		`SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> ?c }`,
		`SELECT * WHERE { ?f <starring> ?a . ?f <chronology> ?f2 . ?a <spouse> ?b }`,
		`SELECT * WHERE { <actor1> ?p ?o }`,
	}
	for _, qs := range queries {
		q := sparql.MustParse(qs)
		res, err := c.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		want, _ := fullStore(g).Match(q)
		if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
			t.Fatalf("VP wrong for %s:\ngot  %v\nwant %v",
				qs, rowSet(g, res.Table), rowSet(g, want))
		}
	}
}

func TestVPSingleSiteIndependent(t *testing.T) {
	g := movieGraph()
	// K=1 trivially puts every property on the same site.
	layout, err := partition.VP{}.Partition(g, partition.Options{K: 1, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(layout, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a . ?f <chronology> ?f2 }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Independent {
		t.Fatal("single-site VP query should be independent")
	}
}

func TestProjection(t *testing.T) {
	g := movieGraph()
	c := mpcCluster(t, g, 2)
	q := sparql.MustParse(`SELECT ?a WHERE { ?f <starring> ?a }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Vars) != 1 || res.Table.Vars[0] != "a" {
		t.Fatalf("projection schema = %v", res.Table.Vars)
	}
}

// Golden correctness property: for random graphs, random connected queries
// and every partitioning strategy/mode, distributed execution returns
// exactly the whole-graph answer.
func TestDistributedEqualsCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		g := rdf.NewGraph()
		nV, nP := 15+rng.Intn(15), 3+rng.Intn(4)
		for i := 0; i < 120; i++ {
			g.AddTriple(
				fmt.Sprintf("v%d", rng.Intn(nV)),
				fmt.Sprintf("p%d", rng.Intn(nP)),
				fmt.Sprintf("v%d", rng.Intn(nV)))
		}
		g.Freeze()
		whole := fullStore(g)

		var clusters []*Cluster
		k := 2 + rng.Intn(3)
		if p, err := (core.MPC{}).Partition(g, partition.Options{K: k, Epsilon: 0.3, Seed: int64(trial)}); err == nil {
			c, err := NewFromPartitioning(p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			clusters = append(clusters, c)
		}
		if p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: k, Epsilon: 0.3, Seed: 1}); err == nil {
			for _, crossing := range []sparql.CrossingTest{p.CrossingTest(), nil} {
				c, err := New(p, crossing, Config{})
				if err != nil {
					t.Fatal(err)
				}
				clusters = append(clusters, c)
			}
		}
		if p, err := (partition.MinEdgeCut{}).Partition(g, partition.Options{K: k, Epsilon: 0.3, Seed: 1}); err == nil {
			c, err := New(p, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			clusters = append(clusters, c)
		}
		if l, err := (partition.VP{}).Partition(g, partition.Options{K: k, Epsilon: 0.3, Seed: 1}); err == nil {
			c, err := New(l, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			clusters = append(clusters, c)
		}

		for qi := 0; qi < 6; qi++ {
			q := randomQuery(rng, g)
			want, err := whole.Match(q)
			if err != nil {
				continue // e.g. mixed-kind variable; skip
			}
			wantRows := rowSet(g, want)
			for ci, c := range clusters {
				res, err := c.Execute(q)
				if err != nil {
					t.Fatalf("trial %d cluster %d query %s: %v", trial, ci, q, err)
				}
				if !sameRows(rowSet(g, res.Table), wantRows) {
					t.Fatalf("trial %d cluster %d mismatch for\n%s\ngot  %v\nwant %v",
						trial, ci, q, rowSet(g, res.Table), wantRows)
				}
			}
		}
	}
}

// randomQuery builds a random weakly connected query over g's vocabulary,
// with occasional constants and variable properties.
func randomQuery(rng *rand.Rand, g *rdf.Graph) *sparql.Query {
	n := 1 + rng.Intn(4)
	q := &sparql.Query{}
	for i := 0; i < n; i++ {
		var s sparql.Term
		if i == 0 {
			s = sparql.Var("v0")
		} else {
			s = sparql.Var(fmt.Sprintf("v%d", rng.Intn(i+1)))
		}
		o := sparql.Var(fmt.Sprintf("v%d", i+1))
		var p sparql.Term
		switch rng.Intn(6) {
		case 0:
			p = sparql.Var(fmt.Sprintf("pp%d", i))
		default:
			p = sparql.Const(g.Properties.String(uint32(rng.Intn(g.NumProperties()))))
		}
		// Occasionally make an endpoint constant.
		if rng.Intn(5) == 0 {
			s = sparql.Const(g.Vertices.String(uint32(rng.Intn(g.NumVertices()))))
		}
		if rng.Intn(2) == 0 {
			s, o = o, s
		}
		q.Patterns = append(q.Patterns, sparql.TriplePattern{S: s, P: p, O: o})
	}
	return q
}
