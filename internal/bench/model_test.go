package bench

import (
	"testing"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

// TestModeledStatsChargesInProcessShipping pins the experiments' shipping
// model: an in-process result's JoinTime gains TuplesShipped × 2µs, and a
// result from sites behind a transport gains nothing, because its shipping
// is already measured.
func TestModeledStatsChargesInProcessShipping(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("film1", "starring", "actor1")
	g.AddTriple("film2", "starring", "actor2")
	g.AddTriple("actor1", "birthPlace", "city1")
	g.AddTriple("actor2", "birthPlace", "city2")
	g.AddTriple("city1", "foundingDate", "1850")
	g.AddTriple("city2", "foundingDate", "1900")
	g.Freeze()
	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := cluster.New(p, nil, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]cluster.Site, p.NumSites())
	for i := range sites {
		sites[i] = cluster.SiteForStore(local.Site(i))
	}
	remote, err := cluster.NewWithSites(p, nil, cluster.Config{}, sites)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> ?c . ?c <foundingDate> ?d }`)

	res, err := local.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TuplesShipped == 0 {
		t.Fatal("the path query shipped no tuples")
	}
	s := modeledStats(local, res)
	if want := res.Stats.JoinTime + time.Duration(res.Stats.TuplesShipped)*2*time.Microsecond; s.JoinTime != want {
		t.Fatalf("in-process JoinTime %v, want %v", s.JoinTime, want)
	}
	if s.Total()-res.Stats.Total() != s.JoinTime-res.Stats.JoinTime {
		t.Fatal("the model changed more than JoinTime")
	}

	res, err = remote.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TuplesShipped == 0 {
		t.Fatal("the path query shipped no tuples over the sites")
	}
	if s := modeledStats(remote, res); s != res.Stats {
		t.Fatalf("remote stats changed: %+v, want %+v", s, res.Stats)
	}
}
