package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/workload"
)

// Localized execution must return exactly the same answers as broadcast
// execution on the full LUBM benchmark (several queries carry constants).
func TestLocalizeCorrectOnLUBM(t *testing.T) {
	g := datagen.LUBM{}.Generate(15000, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 4, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	broadcast, err := NewFromPartitioning(p, Config{Broadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	localized, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.LUBMQueries(g, 1) {
		a, err := broadcast.Execute(q.Query)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		b, err := localized.Execute(q.Query)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !sameRows(rowSet(g, a.Table), rowSet(g, b.Table)) {
			t.Fatalf("%s: localized execution differs (%d vs %d rows)",
				q.Name, b.Table.Len(), a.Table.Len())
		}
	}
}

// Golden property over random graphs and queries.
func TestLocalizeEqualsCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		g := rdf.NewGraph()
		for i := 0; i < 120; i++ {
			g.AddTriple(
				fmt.Sprintf("v%d", rng.Intn(16)),
				fmt.Sprintf("p%d", rng.Intn(4)),
				fmt.Sprintf("v%d", rng.Intn(16)))
		}
		g.Freeze()
		whole := fullStore(g)
		p, err := (core.MPC{}).Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewFromPartitioning(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 6; qi++ {
			q := randomQuery(rng, g)
			want, err := whole.Match(q)
			if err != nil {
				continue
			}
			res, err := c.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
				t.Fatalf("trial %d: localized wrong for %s", trial, q)
			}
		}
	}
}

func TestLocalizeSites(t *testing.T) {
	g := movieGraph()
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	localizeSites := func(q *sparql.Query) []int {
		a := sparql.Analyze(q, c.crossing)
		return c.localizeSites(&a)
	}
	// Internal IEQ anchored at film1: only film1's home should be probed.
	q := sparql.MustParse(`SELECT * WHERE { <film1> <starring> ?a . ?a <spouse> ?b }`)
	sites := localizeSites(q)
	if len(sites) != 1 {
		t.Fatalf("sites = %v, want exactly one", sites)
	}
	f1, _ := g.Vertices.Lookup("film1")
	if sites[0] != int(p.Assign[f1]) {
		t.Fatalf("localized to site %d, film1 homed at %d", sites[0], p.Assign[f1])
	}
	// Unknown constant: provably empty.
	q2 := sparql.MustParse(`SELECT * WHERE { <ghost> <starring> ?a }`)
	if sites := localizeSites(q2); sites != nil {
		t.Fatalf("sites = %v, want nil for unknown constant", sites)
	}
	// No constants: all sites.
	q3 := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a }`)
	if sites := localizeSites(q3); len(sites) != c.NumSites() {
		t.Fatalf("sites = %v, want all", sites)
	}
	// Execution of the provably-empty query returns no rows.
	res, err := c.Execute(q2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 0 {
		t.Fatal("ghost query returned rows")
	}
}
