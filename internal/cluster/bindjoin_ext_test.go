package cluster_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/dataio"
	"mpc/internal/oracle"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/transport"
)

// tagValues are the values <a> tags: an IRI, two literals (one with a
// language tag and inner spaces) and a blank node. The two-round path
// sends each back to the sites as a constant.
var tagValues = []string{"i1", `"lit one"`, `"zwei drei"@de`, "_:b1"}

// tagGraph: <a> tags each value; wK labels value K (plus untagged labels),
// knows uK, and uK likes tK. <a> and the values live at site 0, each
// w/u/t chain at site 1 or 2, so label is the one crossing property and
// the query below splits into the anchored `<a> tag ?y` and a larger
// label/knows/likes side bound on ?y.
func tagGraph(t *testing.T) *partition.Partitioning {
	t.Helper()
	g := rdf.NewGraph()
	labels := append(append([]string(nil), tagValues...), "i2", `"other"`, "_:b2")
	for i, v := range labels {
		if i < len(tagValues) {
			g.AddTriple("a", "tag", v)
		}
		w, u := fmt.Sprintf("w%d", i), fmt.Sprintf("u%d", i)
		g.AddTriple(w, "label", v)
		g.AddTriple(w, "knows", u)
		g.AddTriple(u, "likes", fmt.Sprintf("t%d", i))
	}
	g.Freeze()
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		name := g.Vertices.String(uint32(v))
		var idx int
		if _, err := fmt.Sscanf(name[1:], "%d", &idx); err == nil && strings.ContainsRune("wut", rune(name[0])) {
			assign[v] = int32(1 + idx%2)
		}
	}
	p, err := partition.FromAssignment(g, 3, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const tagQuery = `SELECT * WHERE { <a> <tag> ?y . ?w <label> ?y . ?w <knows> ?u . ?u <likes> ?t }`

// logSite forwards to a batch site and logs the subqueries it forwards.
type logSite struct {
	cluster.BatchSite
	mu   *sync.Mutex
	subs *[]*sparql.Query
}

func (s logSite) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts cluster.SubOpts) ([]*store.Table, cluster.SubStats, error) {
	s.mu.Lock()
	*s.subs = append(*s.subs, subs...)
	s.mu.Unlock()
	return s.BatchSite.ExecuteSubBatch(ctx, subs, opts)
}

// checkOracle compares a cluster's answer to q with the reference
// evaluator's.
func checkOracle(t *testing.T, name string, c *cluster.Cluster, g *rdf.Graph, q *sparql.Query) {
	t.Helper()
	want, err := oracle.EvalQuery(g, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(q)
	if err != nil {
		t.Fatalf("%s: %s: %v", name, q, err)
	}
	if d := oracle.Diff(want.ProjectQuery(q), oracle.Canonicalize(res.Table), g); d != nil {
		t.Errorf("%s: %s: %v", name, q, d)
	}
}

// TestBindJoinLiteralAndBlankValuesOverTCP serves the layout from mapped
// snapshots behind loopback servers: every bound value (IRI, literals,
// blank node) must round-trip coordinator dictionary → wire → the site's
// own dictionary and give the oracle's answer.
func TestBindJoinLiteralAndBlankValuesOverTCP(t *testing.T) {
	p := tagGraph(t)
	g := p.Graph()
	paths, err := dataio.SaveSiteSnapshots(filepath.Join(t.TempDir(), "site"), p)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.Store, len(paths))
	for i, path := range paths {
		if stores[i], err = store.OpenSnapshot(path); err != nil {
			t.Fatal(err)
		}
		defer stores[i].Close()
	}
	addrs, closeSites, err := transport.ServeLoopback(stores, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSites()
	clients, err := transport.Connect(addrs, transport.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer transport.CloseAll(clients)
	var mu sync.Mutex
	var sent []*sparql.Query
	sites := make([]cluster.Site, len(clients))
	for i, cl := range clients {
		sites[i] = logSite{cl, &mu, &sent}
	}
	tcp, err := cluster.NewWithSites(p, p.CrossingTest(), cluster.Config{}, sites)
	if err != nil {
		t.Fatal(err)
	}
	local, err := cluster.NewFromPartitioning(p, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(tagQuery)
	checkOracle(t, "tcp", tcp, g, q)
	checkOracle(t, "in-process", local, g, q)
	res, err := tcp.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != len(tagValues) {
		t.Fatalf("%d rows, want %d", res.Table.Len(), len(tagValues))
	}
	for _, v := range tagValues {
		found := false
		for _, sub := range sent {
			for _, tp := range sub.Patterns {
				found = found || (tp.P.Value == "label" && !tp.O.IsVar && tp.O.Value == v)
			}
		}
		if !found {
			t.Errorf("no instance bound ?y to %s was sent", v)
		}
	}
}

// TestBindJoinFilterOnBoundVariable runs general queries whose FILTER the
// leaf evaluator pushes into the dependent subquery. A filter naming the
// join variable keeps it unbound (replacing it would leave the filter
// reading an unbound variable); one naming another variable rides along
// with every instance.
func TestBindJoinFilterOnBoundVariable(t *testing.T) {
	p := tagGraph(t)
	c, err := cluster.NewFromPartitioning(p, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := `<a> <tag> ?y . ?w <label> ?y . ?w <knows> ?u . ?u <likes> ?t`
	for _, f := range []string{
		`?y != "lit one"`,
		`bound(?y)`,
		`?y = <i1> || ?t = <t1>`,
		`!bound(?y) || ?y = _:b1`,
		`?t != <t1>`,
		`?t = <t0> && ?y != <i1>`,
	} {
		q := sparql.MustParse(`SELECT * WHERE { ` + body + ` FILTER(` + f + `) }`)
		if q.IsBGP() {
			t.Fatalf("%s parsed as a plain BGP; want a general query", q)
		}
		checkOracle(t, "filter", c, p.Graph(), q)
	}
}
