package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

func TestSemijoinReduce(t *testing.T) {
	a := &store.Table{
		Vars:  []string{"x", "y"},
		Kinds: []store.VarKind{store.KindVertex, store.KindVertex},
		Data:  []uint32{1, 10, 2, 20, 3, 30},
	}
	b := &store.Table{
		Vars:  []string{"y", "z"},
		Kinds: []store.VarKind{store.KindVertex, store.KindVertex},
		Data:  []uint32{20, 200, 40, 400},
	}
	semijoinReduce([]*store.Table{a, b})
	if a.Len() != 1 || a.At(0, 1) != 20 {
		t.Fatalf("a reduced to %v, want only y=20", a.Data)
	}
	if b.Len() != 1 || b.At(0, 0) != 20 {
		t.Fatalf("b reduced to %v, want only y=20", b.Data)
	}
}

func TestSemijoinReduceNoSharedVars(t *testing.T) {
	a := &store.Table{Vars: []string{"x"}, Kinds: []store.VarKind{store.KindVertex},
		Data: []uint32{1, 2}}
	b := &store.Table{Vars: []string{"y"}, Kinds: []store.VarKind{store.KindVertex},
		Data: []uint32{3}}
	semijoinReduce([]*store.Table{a, b})
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatal("tables without shared variables must be untouched")
	}
}

// TestSemijoinPreservesResults: with the reduction enabled, every query
// over every strategy still returns exactly the whole-graph answer, and
// ships no more tuples than the unreduced execution.
func TestSemijoinPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := rdf.NewGraph()
	for i := 0; i < 150; i++ {
		g.AddTriple(
			fmt.Sprintf("v%d", rng.Intn(20)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("v%d", rng.Intn(20)))
	}
	g.Freeze()
	whole := fullStore(g)

	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(p, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := New(p, nil, Config{Semijoin: true})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng, g)
		want, err := whole.Match(q)
		if err != nil {
			continue
		}
		a, err := plain.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := semi.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(rowSet(g, b.Table), rowSet(g, want)) {
			t.Fatalf("semijoin execution wrong for %s", q)
		}
		if b.Stats.TuplesShipped > a.Stats.TuplesShipped {
			t.Fatalf("semijoin shipped more tuples (%d) than plain (%d) for %s",
				b.Stats.TuplesShipped, a.Stats.TuplesShipped, q)
		}
	}
}

// TestSemijoinReducesShipping on a query engineered to benefit: a selective
// anchored subquery joined with an unselective one.
func TestSemijoinReducesShipping(t *testing.T) {
	g := rdf.NewGraph()
	// Chain community: anchor vertex a0 with a unique property.
	g.AddTriple("a0", "rare", "b0")
	for i := 0; i < 50; i++ {
		g.AddTriple(fmt.Sprintf("b%d", i), "common", fmt.Sprintf("c%d", i))
		g.AddTriple(fmt.Sprintf("c%d", i), "common2", fmt.Sprintf("d%d", i))
	}
	g.Freeze()
	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE {
		<a0> <rare> ?b . ?b <common> ?c . ?c <common2> ?d }`)

	plain, _ := New(p, nil, Config{})
	semi, _ := New(p, nil, Config{Semijoin: true})
	a, err := plain.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := semi.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.Len() != 1 || b.Table.Len() != 1 {
		t.Fatalf("results = %d/%d, want 1/1", a.Table.Len(), b.Table.Len())
	}
	if b.Stats.TuplesShipped >= a.Stats.TuplesShipped {
		t.Fatalf("semijoin shipped %d tuples, plain %d — expected a reduction",
			b.Stats.TuplesShipped, a.Stats.TuplesShipped)
	}
}

// TestKHopClusterCorrect: executing over a 2-hop replicated layout returns
// the same answers (extra replicas add redundancy, never wrong results).
func TestKHopClusterCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := rdf.NewGraph()
	for i := 0; i < 120; i++ {
		g.AddTriple(
			fmt.Sprintf("v%d", rng.Intn(18)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("v%d", rng.Intn(18)))
	}
	g.Freeze()
	whole := fullStore(g)
	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.KHopExpand(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	crossing := p.CrossingTest()
	c, err := New(l, crossing, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
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
			t.Fatalf("2-hop cluster wrong for %s", q)
		}
	}
}
