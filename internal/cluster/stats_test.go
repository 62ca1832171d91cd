package cluster

import (
	"testing"
	"time"

	"mpc/internal/partition"
	"mpc/internal/sparql"
)

func TestStatsTotal(t *testing.T) {
	s := Stats{DecompTime: time.Millisecond, LocalTime: 2 * time.Millisecond,
		JoinTime: 3 * time.Millisecond}
	if s.Total() != 6*time.Millisecond {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestClusterAccessors(t *testing.T) {
	g := movieGraph()
	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSites() != 3 {
		t.Fatalf("NumSites = %d", c.NumSites())
	}
	total := 0
	for i := 0; i < c.NumSites(); i++ {
		if c.Site(i) == nil {
			t.Fatalf("site %d nil", i)
		}
		total += c.Site(i).NumTriples()
	}
	if total < g.NumTriples() {
		t.Fatalf("sites hold %d triples, graph has %d", total, g.NumTriples())
	}
	if c.LoadTime <= 0 {
		t.Fatal("LoadTime not measured")
	}
}

func TestVPUnknownPropertyAmongKnown(t *testing.T) {
	g := movieGraph()
	layout, err := (partition.VP{}).Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(layout, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One known pattern joined with one unknown-property pattern: empty.
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a . ?a <nosuch> ?x }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 0 {
		t.Fatalf("expected empty result, got %d rows", res.Table.Len())
	}
}
