package store

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mpc/internal/datagen"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

// movieGraph is a small fixture with known query answers.
func movieGraph() *rdf.Graph {
	g := rdf.NewGraph()
	g.AddTriple("film1", "starring", "actor1")
	g.AddTriple("film1", "starring", "actor2")
	g.AddTriple("film2", "starring", "actor2")
	g.AddTriple("actor1", "birthPlace", "city1")
	g.AddTriple("actor2", "birthPlace", "city2")
	g.AddTriple("actor1", "spouse", "actor2")
	g.AddTriple("film1", "producer", "person1")
	g.AddTriple("person1", "residence", "city1")
	g.Freeze()
	return g
}

// fullStore loads every triple of g.
func fullStore(g *rdf.Graph) *Store {
	idx := make([]int32, g.NumTriples())
	for i := range idx {
		idx[i] = int32(i)
	}
	return New(g, idx)
}

func mustMatch(t *testing.T, st *Store, q string) *Table {
	t.Helper()
	tab, err := st.Match(sparql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// rowStrings renders rows as var=value strings for order-insensitive
// comparison.
func rowStrings(g *rdf.Graph, tab *Table) []string {
	out := make([]string, 0, tab.Len())
	for r := 0; r < tab.Len(); r++ {
		s := ""
		for i, v := range tab.Vars {
			var val string
			if tab.Kinds[i] == KindProperty {
				val = g.Properties.String(tab.At(r, i))
			} else {
				val = g.Vertices.String(tab.At(r, i))
			}
			s += v + "=" + val + ";"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestMatchSinglePattern(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE { ?f <starring> ?a }`)
	if tab.Len() != 3 {
		t.Fatalf("matches = %d, want 3", tab.Len())
	}
}

func TestMatchConstantSubject(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE { <film1> <starring> ?a }`)
	got := rowStrings(g, tab)
	want := []string{"a=actor1;", "a=actor2;"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestMatchConstantObject(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE { ?a <birthPlace> <city1> }`)
	if tab.Len() != 1 {
		t.Fatalf("matches = %d, want 1", tab.Len())
	}
}

func TestMatchJoinTwoPatterns(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	// Films starring someone born in city2: film1 and film2 via actor2.
	tab := mustMatch(t, st, `SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> <city2> }`)
	got := rowStrings(g, tab)
	if len(got) != 2 {
		t.Fatalf("rows = %v, want 2 rows", got)
	}
}

func TestMatchPathQuery(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	// film -> actor -> spouse -> birthPlace
	tab := mustMatch(t, st, `SELECT * WHERE {
		?f <starring> ?a . ?a <spouse> ?b . ?b <birthPlace> ?c }`)
	// actor1 spouse actor2, actor2 birthPlace city2; film1 stars actor1.
	if tab.Len() != 1 {
		t.Fatalf("matches = %d, want 1", tab.Len())
	}
}

func TestMatchVariableProperty(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE { <actor1> ?p ?o }`)
	// actor1 birthPlace city1; actor1 spouse actor2.
	if tab.Len() != 2 {
		t.Fatalf("matches = %d, want 2", tab.Len())
	}
	pcol := tab.Col("p")
	if pcol < 0 || tab.Kinds[pcol] != KindProperty {
		t.Fatal("property variable column missing or wrong kind")
	}
}

func TestMatchUnknownConstant(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE { ?x <nosuchproperty> ?y }`)
	if tab.Len() != 0 {
		t.Fatalf("matches = %d, want 0", tab.Len())
	}
	tab = mustMatch(t, st, `SELECT * WHERE { <nosuchvertex> <starring> ?y }`)
	if tab.Len() != 0 {
		t.Fatalf("matches = %d, want 0", tab.Len())
	}
}

func TestMatchSameVarTwice(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("a", "self", "a")
	g.AddTriple("a", "self", "b")
	g.Freeze()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE { ?x <self> ?x }`)
	if tab.Len() != 1 {
		t.Fatalf("matches = %d, want 1 (only the self-loop)", tab.Len())
	}
}

func TestMatchMixedKindVarRejected(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	_, err := st.Match(sparql.MustParse(`SELECT * WHERE { ?x ?y ?z . ?y <starring> ?w }`))
	if err == nil {
		t.Fatal("variable used as property and subject must be rejected")
	}
}

func TestMatchHomomorphism(t *testing.T) {
	// Two query variables may map to the same vertex (homomorphism, not
	// isomorphism).
	g := rdf.NewGraph()
	g.AddTriple("a", "knows", "b")
	g.AddTriple("b", "knows", "a")
	g.Freeze()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE { ?x <knows> ?y . ?y <knows> ?x }`)
	// (a,b) and (b,a).
	if tab.Len() != 2 {
		t.Fatalf("matches = %d, want 2", tab.Len())
	}
}

func TestMatchCartesianFreeOrder(t *testing.T) {
	// The planner must evaluate the selective constant pattern first; this
	// is observable only through correctness here, so assert results.
	g := movieGraph()
	st := fullStore(g)
	tab := mustMatch(t, st, `SELECT * WHERE {
		?f <starring> ?a . ?f <producer> <person1> }`)
	if tab.Len() != 2 { // film1 stars actor1, actor2
		t.Fatalf("matches = %d, want 2", tab.Len())
	}
}

func TestMatchDeduplicatesReplicas(t *testing.T) {
	// A store holding the same triple twice (as happens with replicated
	// crossing edges meeting at one site) must not duplicate matches.
	g := rdf.NewGraph()
	g.AddTriple("a", "p", "b")
	g.Freeze()
	st := New(g, []int32{0, 0})
	tab := mustMatch(t, st, `SELECT * WHERE { ?x <p> ?y }`)
	if tab.Len() != 1 {
		t.Fatalf("matches = %d, want 1 after dedup", tab.Len())
	}
}

func TestPartitionedUnionEqualsWhole(t *testing.T) {
	// For a single-property (star, size-1) query, the union of matches over
	// the two halves of any vertex split with replication must equal the
	// whole-graph result — the completeness property behind independent
	// execution.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		for i := 0; i < 50; i++ {
			g.AddTriple(
				fmt.Sprintf("v%d", rng.Intn(15)),
				fmt.Sprintf("p%d", rng.Intn(3)),
				fmt.Sprintf("v%d", rng.Intn(15)))
		}
		g.Freeze()
		assign := make([]int32, g.NumVertices())
		for i := range assign {
			assign[i] = int32(rng.Intn(2))
		}
		// Site layouts with 1-hop replication.
		var site0, site1 []int32
		for i, tr := range g.Triples() {
			if assign[tr.S] == 0 || assign[tr.O] == 0 {
				site0 = append(site0, int32(i))
			}
			if assign[tr.S] == 1 || assign[tr.O] == 1 {
				site1 = append(site1, int32(i))
			}
		}
		whole := fullStore(g)
		q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y }`)
		wt, err := whole.Match(q)
		if err != nil {
			return false
		}
		union := map[string]bool{}
		for _, part := range [][]int32{site0, site1} {
			pt, err := New(g, part).Match(q)
			if err != nil {
				return false
			}
			for r := 0; r < pt.Len(); r++ {
				union[fmt.Sprint(pt.Row(r))] = true
			}
		}
		if len(union) != wt.Len() {
			return false
		}
		for r := 0; r < wt.Len(); r++ {
			if !union[fmt.Sprint(wt.Row(r))] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStore(t *testing.T) {
	g := movieGraph()
	st := New(g, nil)
	if st.NumTriples() != 0 {
		t.Fatal("empty store has triples")
	}
	tab := mustMatch(t, st, `SELECT * WHERE { ?x <starring> ?y }`)
	if tab.Len() != 0 {
		t.Fatal("empty store produced matches")
	}
}

func TestTableCol(t *testing.T) {
	tab := &Table{Vars: []string{"x", "y"}}
	if tab.Col("y") != 1 || tab.Col("z") != -1 {
		t.Fatal("Col lookup broken")
	}
}

func TestCountProperty(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	p, _ := g.Properties.Lookup("starring")
	if st.CountProperty(rdf.PropertyID(p)) != 3 {
		t.Fatalf("CountProperty(starring) = %d, want 3", st.CountProperty(rdf.PropertyID(p)))
	}
}

func BenchmarkMatchStar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := rdf.NewGraph()
	for i := 0; i < 20000; i++ {
		g.AddTriple(
			fmt.Sprintf("v%d", rng.Intn(3000)),
			fmt.Sprintf("p%d", rng.Intn(10)),
			fmt.Sprintf("v%d", rng.Intn(3000)))
	}
	g.Freeze()
	st := fullStore(g)
	q := sparql.MustParse(`SELECT * WHERE { ?x <p0> ?y . ?x <p1> ?z }`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Match(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBlockSnapshot measures the export path of one site: the
// value sort of all three permutations, block encoding and the full
// dictionaries, written to io.Discard.
func BenchmarkWriteBlockSnapshot(b *testing.B) {
	g := datagen.DBpedia{}.Generate(100000, 1)
	idx := allSlots(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteBlockSnapshot(io.Discard, g, idx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/triple")
}

func TestMatchWhereFilterPushdown(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a }`)
	e, err := sparql.ParseExpr(`?a != <actor2>`)
	if err != nil {
		t.Fatal(err)
	}
	q.Filters = []sparql.Expr{e}
	tab, err := st.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("filtered match = %d rows, want 1", tab.Len())
	}
	aCol := tab.Col("a")
	if got := g.Vertices.String(tab.At(0, aCol)); got != "actor1" {
		t.Fatalf("filtered match kept %q, want actor1", got)
	}

	// A filter over a variable the BGP never binds is an error for every
	// row (comparison) → no matches.
	q2 := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a }`)
	e2, err := sparql.ParseExpr(`?missing = <actor1>`)
	if err != nil {
		t.Fatal(err)
	}
	q2.Filters = []sparql.Expr{e2}
	tab, err = st.Match(q2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 0 {
		t.Fatalf("unbound-var filter admitted %d rows, want 0", tab.Len())
	}

	// ... but !bound(?missing) admits everything.
	q3 := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a }`)
	e3, err := sparql.ParseExpr(`!bound(?missing)`)
	if err != nil {
		t.Fatal(err)
	}
	q3.Filters = []sparql.Expr{e3}
	tab, err = st.Match(q3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("!bound filter kept %d rows, want 3", tab.Len())
	}

	// Property-variable filters resolve against the property dictionary.
	q4 := sparql.MustParse(`SELECT * WHERE { <actor1> ?p ?o }`)
	e4, err := sparql.ParseExpr(`?p = <spouse>`)
	if err != nil {
		t.Fatal(err)
	}
	q4.Filters = []sparql.Expr{e4}
	tab, err = st.Match(q4)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("property filter = %d rows, want 1", tab.Len())
	}
}
