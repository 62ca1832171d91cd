package cluster

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/workload"
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

// logSiteCalls runs each query through an in-process cluster (New) and
// through one over recording sites (NewWithSites). It checks that both
// return the same rows and send every site the same subqueries, and returns
// the per-site subqueries of each query, sorted.
func logSiteCalls(t *testing.T, g *rdf.Graph, layout partition.SiteLayout, crossing sparql.CrossingTest, queries []workload.NamedQuery) [][][]string {
	t.Helper()
	local, err := New(layout, crossing, Config{})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*batchLog, local.NumSites())
	for i := range logs {
		logs[i] = &batchLog{BatchSite: local.batch[i]}
		local.batch[i] = logs[i]
	}
	remote, rec := recordedCluster(t, layout, crossing, Config{})

	out := make([][][]string, len(queries))
	for qi, nq := range queries {
		for site := range logs {
			logs[site].subs, rec[site].subs = nil, nil
		}
		lres, err := local.Execute(nq.Query)
		if err != nil {
			t.Fatalf("%s in process: %v", nq.Name, err)
		}
		rres, err := remote.Execute(nq.Query)
		if err != nil {
			t.Fatalf("%s over sites: %v", nq.Name, err)
		}
		if l, r := nullRows(g, lres.Table), nullRows(g, rres.Table); !slices.Equal(l, r) {
			t.Errorf("%s: in process %d rows, over sites %d rows", nq.Name, len(l), len(r))
		}
		out[qi] = make([][]string, len(logs))
		for site := range logs {
			var got []string
			for _, sub := range rec[site].subs {
				got = append(got, patternList(sub))
			}
			want := logs[site].subs
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s site %d: NewWithSites sent %q, New sent %q", nq.Name, site, got, want)
			}
			out[qi][site] = want
		}
	}
	return out
}

// TestSameSiteCallsEitherWay pins that a cluster built in process (New)
// and the same cluster over separate sites (NewWithSites) send every site
// the same subqueries: crossing-aware MPC clusters and plain ones with a
// nil test, over the LUBM queries, the WatDiv templates and GQ1–GQ6. On the
// LUBM data GQ4's and GQ5's path properties are all internal under MPC, so
// their closures run through the sites like any other path.
func TestSameSiteCallsEitherWay(t *testing.T) {
	for _, ds := range []struct {
		name    string
		g       *rdf.Graph
		queries func(*rdf.Graph) []workload.NamedQuery
	}{
		{"LUBM", datagen.LUBM{}.Generate(6000, 1), func(g *rdf.Graph) []workload.NamedQuery {
			return append(workload.LUBMQueries(g, 1), workload.SPARQL11Queries(g, 1)...)
		}},
		{"WatDiv", datagen.WatDiv{}.Generate(6000, 1), func(g *rdf.Graph) []workload.NamedQuery {
			return append(workload.WatDivTemplates(g, 1), workload.SPARQL11Queries(g, 1)...)
		}},
	} {
		p, err := core.MPC{}.Partition(ds.g, partition.Options{K: 4, Epsilon: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		queries := ds.queries(ds.g)
		crossing := p.CrossingTest()
		if ds.name == "LUBM" {
			for _, nq := range queries {
				if nq.Name != "GQ4" && nq.Name != "GQ5" {
					continue
				}
				for _, prop := range nq.Query.Properties() {
					if crossing(prop) {
						t.Fatalf("%s: path property %s is crossing; the data no longer covers internal paths", nq.Name, prop)
					}
				}
			}
		}
		for _, cl := range []struct {
			name     string
			crossing sparql.CrossingTest
		}{{"mpc", crossing}, {"plain", nil}} {
			t.Run(ds.name+"/"+cl.name, func(t *testing.T) {
				logSiteCalls(t, ds.g, p, cl.crossing, queries)
			})
		}
	}
}

// TestPlainClusterSameSubqueriesEitherWay runs a decomposed query with a
// bind round through a plain cluster built in process and over separate
// sites: both send every site the same subqueries, and each bound instance
// of the x star reaches only its x vertex's home.
func TestPlainClusterSameSubqueriesEitherWay(t *testing.T) {
	g, p := bindGraph(t, 3, 5)
	q := workload.NamedQuery{Name: "chain", Query: sparql.MustParse(chainQuery)}
	logs := logSiteCalls(t, g, p, nil, []workload.NamedQuery{q})
	bound := 0
	for site, subs := range logs[0] {
		for _, s := range subs {
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
