package oracle

import (
	"math/rand"
	"testing"

	"mpc/internal/datagen"
	"mpc/internal/sparql"
)

// genQueryOptions configures the generalized query generator over the same
// term pools as queryOptions, with smaller leaves to keep join sizes sane.
func genQueryOptions() sparql.GenOptions {
	return sparql.GenOptions{Rand: queryOptions(3)}
}

// TestEvalQueryBasics pins the generalized naive evaluator's semantics on a
// hand-checkable graph, independent of any engine: left-outer nulls, union
// merge, three-valued FILTER, and path closures with zero-length matches.
func TestEvalQueryBasics(t *testing.T) {
	g := tinyGraph() // p: a→b→c; q: a→c, c→a
	cases := []struct {
		query string
		rows  int
	}{
		{`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <p> ?z } }`, 2},
		{`SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }`, 4},
		{`SELECT * WHERE { ?x <p> ?y FILTER(?y = <b>) }`, 1},
		{`SELECT * WHERE { ?x <p> ?y FILTER(?nope = <b>) }`, 0},   // error drops all
		{`SELECT * WHERE { ?x <p> ?y FILTER(!bound(?nope)) }`, 2}, // bound() never errors
		{`SELECT * WHERE { <a> <p>+ ?y }`, 2},                     // {b, c}
		{`SELECT * WHERE { ?x <p>* ?y }`, 6},                      // diagonal a,b,c + (a,b),(a,c),(b,c)
		{`SELECT * WHERE { ?x <q>+ ?x }`, 2},                      // the a⇄c cycle: a and c
		{`SELECT * WHERE { <a> (<p>|<q>)? ?y }`, 3},               // a itself, b, c
		{`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <p> ?z } FILTER(!bound(?z)) }`, 1},
	}
	for _, tc := range cases {
		b, err := EvalQuery(g, sparql.MustParse(tc.query), 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if b.Len() != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.query, b.Len(), tc.rows)
		}
	}
}

// TestEvalQueryNullJoin pins solution compatibility: a null introduced by
// OPTIONAL is compatible with any later binding and adopts it.
func TestEvalQueryNullJoin(t *testing.T) {
	g := tinyGraph()
	// ?y p ?z is empty for (b,c)'s z, so ?z is null there; the later ?z <q>
	// ?w join must still accept the null row against every q edge.
	q := sparql.MustParse(`SELECT * WHERE {
		?x <p> ?y OPTIONAL { ?y <p> ?z } . ?z <q> ?w }`)
	b, err := EvalQuery(g, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (a,b,c) joins c→a; (b,c,∅) adopts both q edges: (b,c,a→c? no: ?z
	// adopts a with w=c, and c with w=a) → 3 rows total.
	if b.Len() != 3 {
		t.Fatalf("got %d rows, want 3:\n%v", b.Len(), b.Rows)
	}
}

// TestDifferentialCorpusGeneralizedOnly is a focused all-generalized sweep:
// every case has at least one non-BGP operator, so the generalized engine
// path is exercised for each one (the mixed TestDifferentialCorpus also
// interleaves plain BGPs and updates).
func TestDifferentialCorpusGeneralizedOnly(t *testing.T) {
	graphs := graphConfigs[:4]
	queriesPerGraph := 25
	if testing.Short() {
		graphs, queriesPerGraph = graphs[:2], 10
	}
	checked, skipped := 0, 0
	for gi, gc := range graphs {
		g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, int64(300+gi))
		env, err := NewEnv(g, Options{Broadcast: true, Block: true, TCP: gi == 0})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		rng := rand.New(rand.NewSource(int64(4000 + gi)))
		for qi := 0; qi < queriesPerGraph; qi++ {
			q := sparql.RandomQuery(rng, genQueryOptions())
			if q.IsBGP() {
				continue
			}
			res, err := env.Check(q)
			if err != nil {
				t.Fatalf("graph %d query %d:\n%s\n%v", gi, qi, q, err)
			}
			if res.Skipped {
				skipped++
				continue
			}
			checked++
			for _, d := range res.Divergences {
				t.Errorf("graph %d query %d (%d oracle rows):\n%s\n%s", gi, qi, res.OracleRows, q, d)
			}
		}
		env.Close()
	}
	t.Logf("checked %d generalized cases, skipped %d (budget)", checked, skipped)
	if checked == 0 {
		t.Fatal("no generalized cases checked at all")
	}
}

// FuzzDifferentialGeneralized lets the fuzzer hunt for (graph seed, query
// seed) pairs on which any execution path disagrees with the generalized
// naive evaluator — the operator-tree companion of FuzzDifferential.
func FuzzDifferentialGeneralized(f *testing.F) {
	for gs := int64(1); gs <= 3; gs++ {
		for qs := int64(1); qs <= 3; qs++ {
			f.Add(gs, qs)
		}
	}
	f.Fuzz(func(t *testing.T, graphSeed, querySeed int64) {
		g := datagen.Random{V: 24, P: 4}.Generate(110, graphSeed)
		env, err := NewEnv(g, Options{RowLimit: 1500})
		if err != nil {
			t.Skip(err)
		}
		defer env.Close()
		rng := rand.New(rand.NewSource(querySeed))
		q := sparql.RandomQuery(rng, genQueryOptions())
		res, err := env.Check(q)
		if err != nil {
			t.Fatalf("%s\n%v", q, err)
		}
		for _, d := range res.Divergences {
			t.Errorf("graphSeed=%d querySeed=%d:\n%s\n%s", graphSeed, querySeed, q, d)
		}
	})
}
