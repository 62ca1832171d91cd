package oracle

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

// anchorCluster partitions graph config gi with MPC and builds an
// in-process crossing-aware cluster over a clone of the layout with the
// anchored-merge check on. It returns the cluster and the clone, which is
// the coordinator's own assignment: changing it after the build changes
// only what the coordinator believes, not what the sites hold.
func anchorCluster(t *testing.T, gi int) (*rdf.Graph, *cluster.Cluster, *partition.Partitioning) {
	t.Helper()
	gc := graphConfigs[gi]
	g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, int64(100+gi))
	p, err := core.MPC{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coord := p.Clone()
	c, err := cluster.NewFromPartitioning(coord, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetAnchorCheck(true)
	return g, c, coord
}

// TestAnchorFaultAssignFlip seeds the first fault the anchored merge must
// not hide: one coordinator Assign entry flipped. The flipped vertex's
// internal edge lives only at its true home, so the coordinator now keeps
// that row from a site that does not have it; the check must fail the
// query and name the subquery and its anchor.
func TestAnchorFaultAssignFlip(t *testing.T) {
	g, c, coord := anchorCluster(t, 1)
	var v rdf.VertexID
	prop := ""
	for i, tr := range g.Triples() {
		if g.TripleLive(int32(i)) && tr.S != tr.O && coord.Assign[tr.S] == coord.Assign[tr.O] {
			v, prop = tr.S, g.Properties.String(uint32(tr.P))
			break
		}
	}
	if prop == "" {
		t.Fatal("no internal edge in the graph")
	}
	q := &sparql.Query{Patterns: []sparql.TriplePattern{{S: sparql.Var("x"), P: sparql.Const(prop), O: sparql.Var("y")}}}
	if a := c.Plan(q).Anchors; len(a) != 1 || a[0] != "x" {
		t.Fatalf("anchors %v, want [x]", a)
	}
	before, err := c.Execute(q)
	if err != nil {
		t.Fatalf("unfaulted: %v", err)
	}

	coord.Assign[v] = (coord.Assign[v] + 1) % int32(coord.K())
	_, err = c.Execute(q)
	if err == nil || !strings.Contains(err.Error(), "anchored union") || !strings.Contains(err.Error(), "?x") {
		t.Fatalf("flipped Assign[%d] not caught and named: %v", v, err)
	}
	t.Logf("caught: %v", err)

	// Without the check the fault is silent: the answer just loses rows.
	c.SetAnchorCheck(false)
	after, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Table.Len() >= before.Table.Len() {
		t.Fatalf("flip lost no rows (%d → %d); the fault does not exercise the anchor", before.Table.Len(), after.Table.Len())
	}
}

// TestAnchorFaultOutsideCore seeds the second fault: an anchor chosen
// outside the Type-II core. In ?x <int> ?y . ?y <cross> ?z the satellite
// ?z may live at a site that holds the crossing edge but not the core's
// internal edge, so no site both finds a match and owns its ?z binding.
func TestAnchorFaultOutsideCore(t *testing.T) {
	for gi := range graphConfigs {
		g, c, coord := anchorCluster(t, gi)
		q, ok := typeIIWithForeignSatellite(g, coord)
		if !ok {
			continue
		}
		p := c.Plan(q)
		if p.Class != sparql.ClassTypeII || len(p.Anchors) != 1 || p.Anchors[0] != "x" {
			t.Fatalf("graph %d: %s planned as %v with anchors %v, want type-II anchored at ?x", gi, q, p.Class, p.Anchors)
		}
		ctx := context.Background()
		if _, err := c.ExecutePlan(ctx, p); err != nil {
			t.Fatalf("graph %d unfaulted: %v", gi, err)
		}
		fault := *p
		fault.Anchors = []string{"z"}
		_, err := c.ExecutePlan(ctx, &fault)
		if err == nil || !strings.Contains(err.Error(), "anchored union") || !strings.Contains(err.Error(), "?z") {
			t.Fatalf("graph %d: satellite anchor not caught and named: %v", gi, err)
		}
		t.Logf("graph %d caught: %v", gi, err)
		return
	}
	t.Fatal("no graph has an internal edge meeting a crossing edge to another site")
}

// typeIIWithForeignSatellite finds x <int> y and y <cross> z in g, with
// <int> an internal property and z at a site other than y's, and returns
// ?x <int> ?y . ?y <cross> ?z.
func typeIIWithForeignSatellite(g *rdf.Graph, p *partition.Partitioning) (*sparql.Query, bool) {
	internalInto := map[rdf.VertexID]rdf.PropertyID{} // y → an internal property with an edge into y
	for i, tr := range g.Triples() {
		if g.TripleLive(int32(i)) && !p.IsCrossingProperty(tr.P) {
			internalInto[tr.O] = tr.P
		}
	}
	for i, tr := range g.Triples() {
		if !g.TripleLive(int32(i)) || !p.IsCrossingProperty(tr.P) || p.Assign[tr.S] == p.Assign[tr.O] {
			continue
		}
		pi, ok := internalInto[tr.S]
		if !ok {
			continue
		}
		return &sparql.Query{Patterns: []sparql.TriplePattern{
			{S: sparql.Var("x"), P: sparql.Const(g.Properties.String(uint32(pi))), O: sparql.Var("y")},
			{S: sparql.Var("y"), P: sparql.Const(g.Properties.String(uint32(tr.P))), O: sparql.Var("z")},
		}}, true
	}
	return nil, false
}

// TestSingleGroupPlansAsBGP pins the single-group rewrite: a query whose
// operator tree is one group holding one BGP plus FILTERs is planned as
// that BGP (its filters pushed into the subqueries), and it must answer
// exactly as the operator-tree evaluator does. Wrapping the group in a
// second group keeps the same semantics but forces the evaluator, so every
// combination runs each such case of the generalized corpus's query
// streams both ways.
func TestSingleGroupPlansAsBGP(t *testing.T) {
	graphs, queriesPerGraph := graphConfigs[:4], 150
	if testing.Short() {
		graphs, queriesPerGraph = graphs[:2], 60
	}
	checked := 0
	for gi, gc := range graphs {
		g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, int64(300+gi))
		env, err := NewEnv(g, Options{Broadcast: true, Block: true, TCP: gi == 0})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		rng := rand.New(rand.NewSource(int64(4000 + gi)))
		for qi := 0; qi < queriesPerGraph; qi++ {
			q := sparql.RandomQuery(rng, genQueryOptions())
			grp, ok := q.Where.(*sparql.Group)
			if !ok || len(grp.Parts) != 1 {
				continue
			}
			if _, ok := grp.Parts[0].(*sparql.BGP); !ok {
				continue
			}
			nested := &sparql.Query{Select: q.Select, Where: &sparql.Group{Parts: []sparql.GraphPattern{grp}}}
			res, err := env.Check(q)
			if err != nil {
				t.Fatalf("graph %d query %d:\n%s\n%v", gi, qi, q, err)
			}
			if res.Skipped {
				continue
			}
			for _, d := range res.Divergences {
				t.Errorf("graph %d query %d:\n%s\n%s", gi, qi, q, d)
			}
			checked++
			for _, cb := range env.combos {
				if cb.partial {
					continue
				}
				if p := cb.c.Plan(q); len(p.Subs) == 0 {
					t.Fatalf("%s: graph %d query %d not planned as a BGP:\n%s", cb.name, gi, qi, q)
				}
				if p := cb.c.Plan(nested); len(p.Subs) != 0 {
					t.Fatalf("%s: nested group planned as a BGP", cb.name)
				}
				asBGP, err := cb.c.Execute(q)
				if err != nil {
					t.Fatalf("%s: graph %d query %d: %v", cb.name, gi, qi, err)
				}
				asTree, err := cb.c.Execute(nested)
				if err != nil {
					t.Fatalf("%s: graph %d query %d (operator tree): %v", cb.name, gi, qi, err)
				}
				if d := Diff(Canonicalize(asTree.Table), Canonicalize(asBGP.Table), g); d != nil {
					t.Errorf("%s: graph %d query %d: BGP plan differs from the operator tree:\n%s\n%v", cb.name, gi, qi, q, d)
				}
			}
		}
		env.Close()
	}
	t.Logf("checked %d single-group cases on both paths", checked)
	if checked == 0 {
		t.Fatal("no single-group case checked")
	}
}
