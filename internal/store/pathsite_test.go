package store_test

import (
	"fmt"
	"sort"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// Property paths are closed by the coordinator (internal/cluster) from BGP
// subqueries that each site matches on its store. These tests run that
// closure over a single site backed by a flat and by a block store, so both
// store layouts answer the path semantics of DESIGN.md §15. Budget
// exhaustion is internal to the closure and is tested there
// (TestPathBudgetExhausted).

// pathSiteCluster builds a one-site cluster over g whose only site matches
// on a flat (block=false) or block store of g's live triples.
func pathSiteCluster(t *testing.T, g *rdf.Graph, block bool) *cluster.Cluster {
	t.Helper()
	p, err := partition.FromAssignment(g, 1, make([]int32, g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	var st *store.Store
	if block {
		st = store.NewBlock(g, p.SiteTriples(0))
	} else {
		st = store.New(g, p.SiteTriples(0))
	}
	c, err := cluster.NewWithSites(p, p.CrossingTest(), cluster.Config{}, []cluster.Site{cluster.SiteForStore(st)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pathRows executes q on c and returns its distinct rows as sorted
// "[var=name ...]" strings.
func pathRows(t *testing.T, c *cluster.Cluster, g *rdf.Graph, q string) []string {
	t.Helper()
	res, err := c.Execute(sparql.MustParse(q))
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	tab := res.Table
	seen := map[string]bool{}
	var out []string
	for r := 0; r < tab.Len(); r++ {
		parts := make([]string, len(tab.Vars))
		for i, v := range tab.Vars {
			parts[i] = v + "=" + g.Vertices.String(tab.At(r, i))
		}
		sort.Strings(parts)
		if s := fmt.Sprint(parts); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func TestMatchPath(t *testing.T) {
	// a -p-> b -p-> c -p-> d, plus e -q-> a and a "ghost" vertex whose one
	// triple is deleted, so it is in the dictionary but in no live triple.
	g := rdf.NewGraph()
	g.AddTriple("a", "p", "b")
	g.AddTriple("b", "p", "c")
	g.AddTriple("c", "p", "d")
	g.AddTriple("e", "q", "a")
	g.AddTriple("ghost", "p", "a")
	g.Freeze()
	ghost, _ := g.Vertices.Lookup("ghost")
	for i, tr := range g.Triples() {
		if uint32(tr.S) == ghost {
			g.Delete(int32(i))
		}
	}
	cases := []struct {
		query string
		want  []string
	}{
		{`SELECT * WHERE { <a> <p>+ ?y }`, []string{"[y=b]", "[y=c]", "[y=d]"}},
		// '*' additionally includes a itself.
		{`SELECT * WHERE { <a> <p>* ?y }`, []string{"[y=a]", "[y=b]", "[y=c]", "[y=d]"}},
		{`SELECT * WHERE { ?x <p>+ <d> }`, []string{"[x=a]", "[x=b]", "[x=c]"}},
		{`SELECT * WHERE { ?x <p>|<q> ?y }`, []string{
			"[x=a y=b]", "[x=b y=c]", "[x=c y=d]", "[x=e y=a]"}},
		// Constant-constant membership: one zero-width row.
		{`SELECT * WHERE { <e> (<p>|<q>)+ <d> }`, []string{"[]"}},
		// Zero-length matches bind live vertices only.
		{`SELECT * WHERE { <ghost> <p>* ?y }`, nil},
		{`SELECT * WHERE { ?x <p>? ?x }`, []string{"[x=a]", "[x=b]", "[x=c]", "[x=d]", "[x=e]"}},
		// Unknown property: empty, not an error.
		{`SELECT * WHERE { ?x <nope>+ ?y }`, nil},
	}
	for _, block := range []bool{false, true} {
		name := map[bool]string{false: "flat", true: "block"}[block]
		c := pathSiteCluster(t, g, block)
		for _, tc := range cases {
			if got := pathRows(t, c, g, tc.query); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s: %s\ngot  %v\nwant %v", name, tc.query, got, tc.want)
			}
		}
	}
}

func TestMatchPathCycle(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("x", "p", "y")
	g.AddTriple("y", "p", "x")
	g.Freeze()
	for _, block := range []bool{false, true} {
		// <x> <p>+ ?y: the cycle returns to x, so both x and y match.
		got := pathRows(t, pathSiteCluster(t, g, block), g, `SELECT * WHERE { <x> <p>+ ?y }`)
		if want := []string{"[y=x]", "[y=y]"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("block=%v: <x> <p>+ ?y on a 2-cycle = %v, want %v", block, got, want)
		}
	}
}
