package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// nullRows renders a table as a sorted set of "var=value" strings with ∅
// for null cells — the null-aware analogue of rowSet.
func nullRows(g *rdf.Graph, t *store.Table) []string {
	out := make([]string, 0, t.Len())
	for r := 0; r < t.Len(); r++ {
		parts := make([]string, len(t.Vars))
		for i, v := range t.Vars {
			val := "∅"
			if !t.IsNull(r, i) {
				if t.Kinds[i] == store.KindProperty {
					val = g.Properties.String(t.At(r, i))
				} else {
					val = g.Vertices.String(t.At(r, i))
				}
			}
			parts[i] = v + "=" + val
		}
		sort.Strings(parts)
		out = append(out, fmt.Sprint(parts))
	}
	sort.Strings(out)
	dedup := out[:0]
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			dedup = append(dedup, s)
		}
	}
	return dedup
}

// TestGeneralizedAcrossModes checks that OPTIONAL/UNION/FILTER/path queries
// agree across every execution mode. The K=1 crossing-aware cluster is the
// reference: with one site the operator fold runs over whole-store BGP
// answers, so its results follow directly from the (independently tested)
// store layer.
func TestGeneralizedAcrossModes(t *testing.T) {
	g := movieGraph()
	ref := mpcCluster(t, g, 1)

	pMPC, err := partition.SubjectHash{}.Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	crossingAware, err := NewFromPartitioning(pMPC, Config{})
	if err != nil {
		t.Fatal(err)
	}
	starOnly, err := New(pMPC, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vpLayout, err := partition.VP{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vp, err := New(vpLayout, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clusters := map[string]*Cluster{
		"crossing-aware": crossingAware,
		"star-only":      starOnly,
		"vp":             vp,
	}

	queries := []string{
		`SELECT * WHERE { ?f <starring> ?a OPTIONAL { ?a <birthPlace> ?city } }`,
		`SELECT * WHERE { ?f <starring> ?a OPTIONAL { ?a <spouse> ?b OPTIONAL { ?b <birthPlace> ?bc } } }`,
		`SELECT * WHERE { { ?f <starring> ?a } UNION { ?p <residence> ?c } }`,
		`SELECT * WHERE { { ?a <birthPlace> ?c } UNION { ?a <residence> ?c } }`,
		`SELECT * WHERE { ?f <starring> ?a FILTER(?a != <actor2>) }`,
		`SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> ?city FILTER(?city = <city1>) }`,
		`SELECT * WHERE { ?f <starring> ?a FILTER(!bound(?nope)) }`,
		`SELECT * WHERE { <actor1> (<spouse>|<birthPlace>)+ ?y }`,
		`SELECT * WHERE { ?x <birthPlace>* ?y }`,
		`SELECT * WHERE { ?x <spouse>? ?x }`,
		`SELECT * WHERE { ?x (<starring>|<chronology>)+ <actor2> }`,
		`SELECT ?a ?c WHERE { { ?a <birthPlace> ?c } UNION { ?a <residence> ?c } OPTIONAL { ?a <spouse> ?s } FILTER(bound(?c)) }`,
	}
	for _, qs := range queries {
		q := sparql.MustParse(qs)
		want, err := ref.Execute(q)
		if err != nil {
			t.Fatalf("reference: %s: %v", qs, err)
		}
		for name, c := range clusters {
			res, err := c.Execute(q.Clone())
			if err != nil {
				t.Fatalf("%s: %s: %v", name, qs, err)
			}
			if got, exp := nullRows(g, res.Table), nullRows(g, want.Table); !sameRows(got, exp) {
				t.Errorf("%s disagrees on %s:\ngot  %v\nwant %v", name, qs, got, exp)
			}
			if res.Stats.Operator == "" || res.Stats.Operator == "bgp" {
				t.Errorf("%s: %s: Stats.Operator = %q, want a generalized class", name, qs, res.Stats.Operator)
			}
		}
	}
}

// optGraph: film1's actor has a spouse with a residence; film2's actor has
// neither.
func optGraph() *rdf.Graph {
	g := rdf.NewGraph()
	g.AddTriple("film1", "starring", "actor1")
	g.AddTriple("film2", "starring", "actor3")
	g.AddTriple("actor1", "spouse", "actor2")
	g.AddTriple("actor2", "residence", "city1")
	g.Freeze()
	return g
}

// Pinned regression: a variable introduced as null by OPTIONAL and consumed
// by a later join is compatible with any value there (SPARQL solution
// compatibility), so the null row joins rather than disappearing.
func TestOptionalNullConsumedByLaterJoin(t *testing.T) {
	g := optGraph()
	c := mpcCluster(t, g, 2)
	q := sparql.MustParse(`SELECT * WHERE {
		?f <starring> ?a OPTIONAL { ?a <spouse> ?b } . ?b <residence> ?c }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	got := nullRows(g, res.Table)
	want := []string{
		"[a=actor1 b=actor2 c=city1 f=film1]",
		"[a=actor3 b=actor2 c=city1 f=film2]", // null ?b adopted the join value
	}
	if !sameRows(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Pinned regression: FILTER over an unbound variable. A comparison errors
// (drops the row); bound() observes the nullness introduced by OPTIONAL.
func TestFilterUnboundSemantics(t *testing.T) {
	g := optGraph()
	c := mpcCluster(t, g, 2)
	cases := []struct {
		query string
		want  []string
	}{
		{
			`SELECT * WHERE { ?f <starring> ?a OPTIONAL { ?a <spouse> ?b } FILTER(?b = <actor2>) }`,
			[]string{"[a=actor1 b=actor2 f=film1]"},
		},
		{
			`SELECT * WHERE { ?f <starring> ?a OPTIONAL { ?a <spouse> ?b } FILTER(!bound(?b)) }`,
			[]string{"[a=actor3 b=∅ f=film2]"},
		},
		{
			`SELECT * WHERE { ?f <starring> ?a FILTER(?nope = <actor1>) }`,
			nil, // comparison over a never-bound var errors on every row
		},
		{
			`SELECT * WHERE { ?f <starring> ?a FILTER(!bound(?nope)) }`,
			[]string{"[a=actor1 f=film1]", "[a=actor3 f=film2]"},
		},
	}
	for _, tc := range cases {
		res, err := c.Execute(sparql.MustParse(tc.query))
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if got := nullRows(g, res.Table); !sameRows(got, tc.want) {
			t.Errorf("%s:\ngot  %v\nwant %v", tc.query, got, tc.want)
		}
	}
}

// Pinned regression: p* zero-length matches bind a vertex to itself only
// while it occurs in a live triple. After an update removes a vertex's last
// triple, it must vanish from p* results even though it stays in the
// dictionary.
func TestPathZeroLengthIsolatedVertex(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("a", "follows", "b")
	g.AddTriple("b", "follows", "c")
	g.AddTriple("c", "residence", "city1")
	g.AddTriple("loner", "follows", "a")
	g.Freeze()
	c := mpcCluster(t, g, 2)

	q := sparql.MustParse(`SELECT * WHERE { ?x <follows>* ?y }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	pre := nullRows(g, res.Table)
	hasLoner := false
	for _, row := range pre {
		if row == "[x=loner y=loner]" {
			hasLoner = true
		}
	}
	if !hasLoner {
		t.Fatalf("live loner should self-match under *: %v", pre)
	}

	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: false, S: "loner", P: "follows", O: "a"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	got := nullRows(g, res.Table)
	// Remaining: edges a→b→c, their closure, and the diagonal over the five
	// still-live vertices (a, b, c, city1 — and not loner).
	want := []string{
		"[x=a y=a]", "[x=a y=b]", "[x=a y=c]",
		"[x=b y=b]", "[x=b y=c]",
		"[x=c y=c]",
		"[x=city1 y=city1]",
	}
	if !sameRows(got, want) {
		t.Fatalf("after isolating loner:\ngot  %v\nwant %v", got, want)
	}
}

// TestGeneralizedSemijoinAndLocalize ensures the generalized fold composes
// with the run-time optimizations on the BGP leaves.
func TestGeneralizedSemijoinAndLocalize(t *testing.T) {
	g := movieGraph()
	p, err := partition.SubjectHash{}.Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewFromPartitioning(p, Config{Broadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := NewFromPartitioning(p, Config{Semijoin: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> ?c OPTIONAL { ?c <foundingDate> ?d } }`,
		`SELECT * WHERE { { <actor1> <birthPlace> ?c } UNION { <actor2> <birthPlace> ?c } }`,
		`SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> ?c FILTER(?a = <actor1>) }`,
	}
	for _, qs := range queries {
		q := sparql.MustParse(qs)
		a, err := plain.Execute(q)
		if err != nil {
			t.Fatalf("plain: %s: %v", qs, err)
		}
		b, err := tuned.Execute(q.Clone())
		if err != nil {
			t.Fatalf("tuned: %s: %v", qs, err)
		}
		if !sameRows(nullRows(g, a.Table), nullRows(g, b.Table)) {
			t.Errorf("semijoin/localize changed %s:\nplain %v\ntuned %v",
				qs, nullRows(g, a.Table), nullRows(g, b.Table))
		}
	}
}

// pathGraph: a -p-> b -p-> c -p-> d, e -q-> a, a 2-cycle u <-p-> w, and a
// "ghost" vertex whose one triple is deleted before partitioning, so it is
// in the dictionary but in no live triple. Returned with a one-site and a
// three-site layout; the three-site one cuts the chain and the cycle.
func pathGraph(t *testing.T) (*rdf.Graph, []*partition.Partitioning) {
	t.Helper()
	g := rdf.NewGraph()
	g.AddTriple("a", "p", "b")
	g.AddTriple("b", "p", "c")
	g.AddTriple("c", "p", "d")
	g.AddTriple("e", "q", "a")
	g.AddTriple("u", "p", "w")
	g.AddTriple("w", "p", "u")
	g.AddTriple("ghost", "p", "a")
	g.Freeze()
	ghost, _ := g.Vertices.Lookup("ghost")
	for i, tr := range g.Triples() {
		if uint32(tr.S) == ghost {
			g.Delete(int32(i))
		}
	}
	home := map[string]int32{"c": 1, "d": 1, "e": 2, "ghost": 2, "w": 1}
	one := make([]int32, g.NumVertices())
	three := make([]int32, g.NumVertices())
	for v := range three {
		three[v] = home[g.Vertices.String(uint32(v))]
	}
	var out []*partition.Partitioning
	for k, assign := range map[int][]int32{1: one, 3: three} {
		p, err := partition.FromAssignment(g, k, assign)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return g, out
}

// TestPathSemantics pins the property-path semantics of DESIGN.md §15 on
// pathGraph, at one and three sites, with each cluster built in process and
// over recording sites: closures in both directions, alternatives,
// membership, zero-length matches only for live vertices, unknown terms,
// and cycles.
func TestPathSemantics(t *testing.T) {
	g, layouts := pathGraph(t)
	cases := []struct {
		query string
		want  []string
	}{
		{`SELECT * WHERE { <a> <p>+ ?y }`, []string{"[y=b]", "[y=c]", "[y=d]"}},
		{`SELECT * WHERE { <a> <p>* ?y }`, []string{"[y=a]", "[y=b]", "[y=c]", "[y=d]"}},
		{`SELECT * WHERE { ?x <p>+ <d> }`, []string{"[x=a]", "[x=b]", "[x=c]"}},
		{`SELECT * WHERE { ?x <p>|<q> ?y }`, []string{
			"[x=a y=b]", "[x=b y=c]", "[x=c y=d]", "[x=e y=a]", "[x=u y=w]", "[x=w y=u]"}},
		{`SELECT * WHERE { <e> (<p>|<q>)+ <d> }`, []string{"[]"}},
		{`SELECT * WHERE { <d> (<p>|<q>)+ <e> }`, nil},
		// ghost is in the dictionary but in no live triple; nobody is not
		// in the dictionary at all.
		{`SELECT * WHERE { <ghost> <p>* ?y }`, nil},
		{`SELECT * WHERE { <nobody> <p>* ?y }`, nil},
		{`SELECT * WHERE { ?x <p>? ?x }`, []string{
			"[x=a]", "[x=b]", "[x=c]", "[x=d]", "[x=e]", "[x=u]", "[x=w]"}},
		{`SELECT * WHERE { ?x <nope>+ ?y }`, nil},
		// The cycle returns to u, so '+' matches u itself.
		{`SELECT * WHERE { <u> <p>+ ?y }`, []string{"[y=u]", "[y=w]"}},
	}
	for _, p := range layouts {
		local, err := New(p, p.CrossingTest(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		remote, _ := recordedCluster(t, p, p.CrossingTest(), Config{})
		for way, c := range map[string]*Cluster{"in process": local, "over sites": remote} {
			for _, tc := range cases {
				res, err := c.Execute(sparql.MustParse(tc.query))
				if err != nil {
					t.Fatalf("k=%d %s: %s: %v", p.K(), way, tc.query, err)
				}
				if got := nullRows(g, res.Table); !sameRows(got, tc.want) {
					t.Errorf("k=%d %s: %s\ngot  %v\nwant %v", p.K(), way, tc.query, got, tc.want)
				}
			}
		}
	}
}

// TestPathBudgetExhausted runs the coordinator closure with a tiny budget:
// both the frontier exchange and the relation-fetching fallback fail with
// ErrPathBudget instead of returning a partial relation.
func TestPathBudgetExhausted(t *testing.T) {
	_, layouts := pathGraph(t)
	for _, p := range layouts {
		c, err := New(p, p.CrossingTest(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		ge := &genExec{c: c, ctx: context.Background(), rs: &readState{pinned: true}, stats: &Stats{}}
		for _, q := range []string{
			`SELECT * WHERE { <a> <p>+ ?y }`, // frontier exchange
			`SELECT * WHERE { ?x <p>* ?y }`,  // fetched relation
		} {
			pp := sparql.MustParse(q).Where.(*sparql.PathPattern)
			c.stateMu.RLock()
			_, small := newDistPath(ge, 2).eval(pp)
			_, full := newDistPath(ge, pathBudget).eval(pp)
			c.stateMu.RUnlock()
			if !errors.Is(small, ErrPathBudget) {
				t.Errorf("k=%d %s, budget 2: got %v, want ErrPathBudget", p.K(), q, small)
			}
			if full != nil {
				t.Errorf("k=%d %s, default budget: %v", p.K(), q, full)
			}
		}
	}
}
