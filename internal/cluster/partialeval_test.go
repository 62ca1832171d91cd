package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"mpc/internal/core"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

func TestConnectedMasks(t *testing.T) {
	// Path of three patterns: x-y, y-z, z-w.
	q := sparql.MustParse(`SELECT * WHERE { ?x <p1> ?y . ?y <p2> ?z . ?z <p3> ?w }`)
	masks := connectedMasks(q)
	want := map[int]bool{
		0b001: true, 0b010: true, 0b100: true, // singles
		0b011: true, 0b110: true, // adjacent pairs
		0b111: true, // whole path
		// 0b101 (edges 0 and 2) is disconnected and must be absent.
	}
	if len(masks) != len(want) {
		t.Fatalf("masks = %b, want %d connected subsets", masks, len(want))
	}
	for _, m := range masks {
		if !want[m] {
			t.Fatalf("mask %b should not be connected", m)
		}
	}
	// Popcount order.
	prev := 0
	for _, m := range masks {
		if pc := popcount(m); pc < prev {
			t.Fatal("masks not in popcount order")
		} else {
			prev = pc
		}
	}
}

func popcount(m int) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func TestConnectedMasksTriangle(t *testing.T) {
	q := sparql.MustParse(`SELECT * WHERE { ?x <p1> ?y . ?y <p2> ?z . ?x <p3> ?z }`)
	masks := connectedMasks(q)
	if len(masks) != 7 { // every nonempty subset of a triangle is connected
		t.Fatalf("triangle masks = %d, want 7", len(masks))
	}
}

func TestPartialEvalSimple(t *testing.T) {
	g := movieGraph()
	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE {
		?f <starring> ?a . ?a <birthPlace> ?c . ?c <foundingDate> ?d }`)
	res, err := c.ExecutePartialEval(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fullStore(g).Match(q)
	if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
		t.Fatalf("partial evaluation wrong:\ngot  %v\nwant %v",
			rowSet(g, res.Table), rowSet(g, want))
	}
}

// Golden property: partial evaluation equals centralized evaluation for
// random graphs, random queries, and random partitionings.
func TestPartialEvalEqualsCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := rdf.NewGraph()
		nV, nP := 12+rng.Intn(10), 3+rng.Intn(3)
		for i := 0; i < 100; i++ {
			g.AddTriple(
				fmt.Sprintf("v%d", rng.Intn(nV)),
				fmt.Sprintf("p%d", rng.Intn(nP)),
				fmt.Sprintf("v%d", rng.Intn(nV)))
		}
		g.Freeze()
		whole := fullStore(g)
		k := 2 + rng.Intn(3)
		var p *partition.Partitioning
		var err error
		if trial%2 == 0 {
			p, err = (partition.SubjectHash{}).Partition(g, partition.Options{K: k, Epsilon: 0.3, Seed: 1})
		} else {
			p, err = (core.MPC{}).Partition(g, partition.Options{K: k, Epsilon: 0.3, Seed: int64(trial)})
		}
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewFromPartitioning(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 5; qi++ {
			q := randomQuery(rng, g)
			want, err := whole.Match(q)
			if err != nil {
				continue
			}
			res, err := c.ExecutePartialEval(q)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
				t.Fatalf("trial %d query %s:\ngot  %v\nwant %v",
					trial, q, rowSet(g, res.Table), rowSet(g, want))
			}
		}
	}
}

// Under MPC, queries avoiding crossing properties complete within single
// sites, so partial evaluation ships (almost) nothing; under subject
// hashing the same query needs assembly.
func TestPartialEvalShipsLessUnderMPC(t *testing.T) {
	g := movieGraph()
	mpcP, err := (core.MPC{}).Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hashP, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mpcC, _ := NewFromPartitioning(mpcP, Config{})
	hashC, _ := NewFromPartitioning(hashP, Config{})
	// Non-star query over internal properties only (birthPlace avoided).
	q := sparql.MustParse(`SELECT * WHERE {
		?f <starring> ?a . ?a <spouse> ?b . ?f <chronology> ?f2 }`)
	a, err := mpcC.ExecutePartialEval(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hashC.ExecutePartialEval(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.Len() != b.Table.Len() {
		t.Fatalf("results differ: %d vs %d", a.Table.Len(), b.Table.Len())
	}
	if a.Stats.TuplesShipped > b.Stats.TuplesShipped {
		t.Fatalf("MPC shipped %d partial matches, hash %d — expected MPC fewer or equal",
			a.Stats.TuplesShipped, b.Stats.TuplesShipped)
	}
}

// TestPruneForcedExtensions checks the maximality pruning directly: a piece
// whose un-included adjacent edge has its subject bound to a same-site
// vertex is dropped; a piece whose boundary vertex lives elsewhere stays.
func TestPruneForcedExtensions(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("a", "p1", "b")
	g.AddTriple("b", "p2", "c")
	g.Freeze()
	// b homed at site 0, everything relevant split by hand.
	va, _ := g.Vertices.Lookup("a")
	vb, _ := g.Vertices.Lookup("b")
	vc, _ := g.Vertices.Lookup("c")
	assign := make([]int32, g.NumVertices())
	assign[va], assign[vb], assign[vc] = 0, 0, 1
	p, err := partition.FromAssignment(g, 2, assign)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE { ?x <p1> ?y . ?y <p2> ?z }`)

	// Piece = edge 0 only (mask 0b01); row binds ?y to b.
	tab := &store.Table{
		Vars:  []string{"x", "y"},
		Kinds: []store.VarKind{store.KindVertex, store.KindVertex},
		Data:  []uint32{va, vb},
	}
	// At site 0: edge 1's subject ?y is bound to b, homed at site 0 → the
	// extension is forced; the piece must be pruned.
	pruned := pruneForcedExtensions(q, 0b01, tab, p, 0)
	if pruned.Len() != 0 {
		t.Fatalf("site-0 piece not pruned: %d rows", pruned.Len())
	}
	// At site 1 the same row is a genuine boundary piece... but it could
	// not have been produced there (a's triple isn't owned by site 1).
	// Use the mirrored case: piece = edge 1 at site 1, subject ?y bound to
	// b homed at 0 → edge 0's subject ?x is not bound → no forced probe.
	tab2 := &store.Table{
		Vars:  []string{"y", "z"},
		Kinds: []store.VarKind{store.KindVertex, store.KindVertex},
		Data:  []uint32{vb, vc},
	}
	kept := pruneForcedExtensions(q, 0b10, tab2, p, 1)
	if kept.Len() != 1 {
		t.Fatalf("boundary piece wrongly pruned")
	}
	// Same piece at site 0: edge 0's subject ?x unbound → kept as well
	// (object-side adjacency never forces ownership).
	tab3 := &store.Table{
		Vars:  []string{"y", "z"},
		Kinds: []store.VarKind{store.KindVertex, store.KindVertex},
		Data:  []uint32{vb, vc},
	}
	kept0 := pruneForcedExtensions(q, 0b10, tab3, p, 0)
	if kept0.Len() != 1 {
		t.Fatalf("object-adjacent piece wrongly pruned at site 0")
	}
}

func TestPartialEvalWithConstants(t *testing.T) {
	g := movieGraph()
	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE {
		<film1> <starring> ?a . ?a <birthPlace> ?c . ?p <residence> ?c }`)
	res, err := c.ExecutePartialEval(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fullStore(g).Match(q)
	if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
		t.Fatalf("constant-anchored partial evaluation wrong:\ngot  %v\nwant %v",
			rowSet(g, res.Table), rowSet(g, want))
	}
}

func TestPartialEvalRejectsVPLayout(t *testing.T) {
	g := movieGraph()
	l, err := (partition.VP{}).Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(l, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecutePartialEval(sparql.MustParse(`SELECT * WHERE { ?x <starring> ?y }`)); err == nil {
		t.Fatal("VP layout accepted for partial evaluation")
	}
}

func TestPartialEvalRejectsHugeQueries(t *testing.T) {
	g := movieGraph()
	p, _ := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	c, _ := NewFromPartitioning(p, Config{})
	q := &sparql.Query{}
	for i := 0; i <= MaxPartialEvalEdges; i++ {
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: sparql.Var(fmt.Sprintf("v%d", i)),
			P: sparql.Const("starring"),
			O: sparql.Var(fmt.Sprintf("v%d", i+1)),
		})
	}
	if _, err := c.ExecutePartialEval(q); err == nil {
		t.Fatal("oversized query accepted")
	}
}
