package cluster

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// TestStrategyFollowsInputs pins how New derives a cluster's strategy from
// its layout and crossing test, on bindGraph's chain query (link is the one
// crossing property; <a> and the x vertices live at site 0):
//
//   - a VPLayout plans edge-disjointly: one site per piece, no anchors;
//   - a Partitioning with its crossing test runs Algorithm 2 and localizes
//     the <a>-anchored side to site 0;
//   - a Partitioning without a test is the plain baseline: subject stars at
//     every site, anchored as if every edge were crossing (the one-edge
//     <a> star on its variable end, which holds the replicated edge).
func TestStrategyFollowsInputs(t *testing.T) {
	g, p := bindGraph(t, 3, 5)
	q := sparql.MustParse(chainQuery)
	vpl, err := partition.VP{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2}
	vpSite := func(prop string) []int {
		pid, _ := g.Properties.Lookup(prop)
		return []int{int(vpl.SiteOf(rdf.PropertyID(pid)))}
	}

	type shape struct {
		class       sparql.Class
		subs        []string
		sitesPerSub [][]int
		anchors     []string
	}
	for _, tc := range []struct {
		name     string
		layout   partition.SiteLayout
		crossing sparql.CrossingTest
		want     shape
	}{
		{"crossing-aware", p, p.CrossingTest(), shape{
			class: sparql.ClassNonIEQ,
			subs: []string{
				"<a> <anchor> ?x . ?x <kind> ?k . ?x <link> ?y .",
				"?y <tail> ?z .",
			},
			sitesPerSub: [][]int{{0}, all},
			anchors:     []string{"x", "y"},
		}},
		{"plain", p, nil, shape{
			class: sparql.ClassNonIEQ,
			subs: []string{
				"<a> <anchor> ?x .",
				"?x <kind> ?k . ?x <link> ?y .",
				"?y <tail> ?z .",
			},
			sitesPerSub: [][]int{all, all, all},
			anchors:     []string{"x", "x", "y"},
		}},
		{"vp", vpl, nil, shape{
			class: sparql.ClassNonIEQ,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.layout, tc.crossing, Config{})
			if err != nil {
				t.Fatal(err)
			}
			pl := c.Plan(q)
			got := shape{class: pl.Class, sitesPerSub: pl.SitesPerSub, anchors: pl.Anchors}
			for _, sub := range pl.Subs {
				got.subs = append(got.subs, patternList(sub))
			}
			want := tc.want
			if tc.name == "vp" {
				// One piece per property site, each at that site alone.
				want.subs = got.subs
				want.sitesPerSub = nil
				for _, sub := range pl.Subs {
					want.sitesPerSub = append(want.sitesPerSub, vpSite(sub.Patterns[0].P.Value))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan\n got %+v\nwant %+v", got, want)
			}
			res, err := c.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstWhole(t, g, res.Table, q)
		})
	}
}

// batchLog records, per site, every subquery a cluster's fan-out sends.
type batchLog struct {
	BatchSite
	mu   sync.Mutex
	subs []string
}

func (s *batchLog) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts SubOpts) ([]*store.Table, SubStats, error) {
	s.mu.Lock()
	for _, sub := range subs {
		s.subs = append(s.subs, patternList(sub))
	}
	s.mu.Unlock()
	return s.BatchSite.ExecuteSubBatch(ctx, subs, opts)
}

// TestPlainClusterSameSubqueriesEitherWay runs a decomposed query with a
// bind round through a plain cluster built in process (New) and over
// separate sites (NewWithSites): both send every site the same subqueries,
// and each bound instance of the x star reaches only its x vertex's home.
func TestPlainClusterSameSubqueriesEitherWay(t *testing.T) {
	g, p := bindGraph(t, 3, 5)
	q := sparql.MustParse(chainQuery)

	local, err := New(p, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*batchLog, local.NumSites())
	for i := range logs {
		logs[i] = &batchLog{BatchSite: local.batch[i]}
		local.batch[i] = logs[i]
	}
	res, err := local.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstWhole(t, g, res.Table, q)

	remote, rec := recordedCluster(t, p, nil, Config{})
	if res, err = remote.Execute(q); err != nil {
		t.Fatal(err)
	}
	checkAgainstWhole(t, g, res.Table, q)

	bound := 0
	for site := range logs {
		var got []string
		for _, sub := range rec[site].subs {
			got = append(got, patternList(sub))
		}
		want := logs[site].subs
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("site %d: NewWithSites sent %q, New sent %q", site, got, want)
		}
		for _, s := range want {
			if strings.HasPrefix(s, "<x") {
				bound++
				if site != 0 {
					t.Errorf("bound instance %q ran at site %d, not its home 0", s, site)
				}
			}
		}
	}
	if bound != 3 {
		t.Fatalf("saw %d bound x instances, want 3 (one per x, at its home only)", bound)
	}
}
