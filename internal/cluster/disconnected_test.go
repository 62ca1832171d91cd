package cluster

// Regression tests for disconnected-query execution. Classification
// (Definitions 5.1–5.3) assumes a weakly connected query; before the guard
// in Execute, a disconnected all-internal query was classified ClassInternal
// and answered by unioning per-site full matches — silently dropping every
// match whose components live at different sites. The differential oracle
// (internal/oracle) found the divergence; these tests pin the fix in-tree.

import (
	"reflect"
	"sort"
	"testing"

	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

// splitGraph holds two single-edge islands that the explicit assignment
// places on different sites, with both properties internal.
func splitGraph(t *testing.T) (*rdf.Graph, *partition.Partitioning) {
	t.Helper()
	g := rdf.NewGraph()
	g.AddTriple("a1", "p", "b1") // island 1 → site 0
	g.AddTriple("a2", "q", "b2") // island 2 → site 1
	g.Freeze()
	assign := make([]int32, g.NumVertices())
	for _, v := range []string{"a2", "b2"} {
		id, ok := g.Vertices.Lookup(v)
		if !ok {
			t.Fatalf("vertex %s missing", v)
		}
		assign[id] = 1
	}
	p, err := partition.FromAssignment(g, 2, assign)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCrossingProperties() != 0 {
		t.Fatalf("islands produced %d crossing properties", p.NumCrossingProperties())
	}
	return g, p
}

// TestDisconnectedQueryCrossesSites is the failure shape itself: the
// Cartesian combination of two components matched at different sites must
// appear in the result of every execution mode.
func TestDisconnectedQueryCrossesSites(t *testing.T) {
	g, p := splitGraph(t)
	q := sparql.MustParse(`SELECT * WHERE { ?x <p> ?y . ?z <q> ?w }`)
	if q.IsWeaklyConnected() {
		t.Fatal("test query unexpectedly connected")
	}
	want := []string{"[w=b2 x=a1 y=b1 z=a2]"}

	modes := []struct {
		name     string
		crossing sparql.CrossingTest // nil: the plain star-only baseline
		cfg      Config
	}{
		{"crossing-aware", p.CrossingTest(), Config{}},
		{"star-only", nil, Config{}},
		{"star-only+semijoin", nil, Config{Semijoin: true}},
	}
	for _, m := range modes {
		c, err := New(p, m.crossing, m.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if got := rowSet(g, res.Table); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows %v, want %v", m.name, got, want)
		}
		if res.Stats.Independent {
			t.Errorf("%s: disconnected query reported independent", m.name)
		}
		if m.crossing != nil && res.Stats.Class != sparql.ClassNonIEQ {
			t.Errorf("%s: class %v, want non-IEQ", m.name, res.Stats.Class)
		}
	}

	// Partial evaluation assembles disjoint pieces through the exact-cover
	// DP and needed no fix; keep it honest too.
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecutePartialEval(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowSet(g, res.Table); !reflect.DeepEqual(got, want) {
		t.Errorf("partial-eval: rows %v, want %v", got, want)
	}
}

// TestDisconnectedSharedPropertyVariable: components that share no vertex
// but share a property variable are still joined on it, not crossed.
func TestDisconnectedSharedPropertyVariable(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("a1", "p", "b1")
	g.AddTriple("a2", "p", "b2")
	g.AddTriple("a2", "q", "b3")
	g.Freeze()
	assign := make([]int32, g.NumVertices())
	for _, v := range []string{"a2", "b2", "b3"} {
		id, _ := g.Vertices.Lookup(v)
		assign[id] = 1
	}
	p, err := partition.FromAssignment(g, 2, assign)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// ?pp must bind to the same property in both patterns: the two p-edges
	// combine freely (2x2 pairs), the lone q-edge only pairs with itself.
	q := sparql.MustParse(`SELECT * WHERE { ?x ?pp ?y . ?z ?pp ?w }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"[pp=p w=b1 x=a1 y=b1 z=a1]",
		"[pp=p w=b1 x=a2 y=b2 z=a1]",
		"[pp=p w=b2 x=a1 y=b1 z=a2]",
		"[pp=p w=b2 x=a2 y=b2 z=a2]",
		"[pp=q w=b3 x=a2 y=b3 z=a2]",
	}
	got := rowSet(g, res.Table)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows:\n%v\nwant:\n%v", got, want)
	}
}
