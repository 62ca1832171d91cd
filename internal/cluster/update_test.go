package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mpc/internal/core"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// liveStore builds a whole-graph store over the currently live triples —
// the naive reference for post-update comparisons.
func liveStore(g *rdf.Graph) *store.Store {
	return store.New(g, g.LiveTriples())
}

// checkAgainstNaive executes q on the cluster and on a fresh whole-graph
// store and compares row sets.
func checkAgainstNaive(t *testing.T, c *Cluster, g *rdf.Graph, q *sparql.Query, tag string) {
	t.Helper()
	res, err := c.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	want, err := liveStore(g).Match(q)
	if err != nil {
		t.Fatalf("%s: naive: %v", tag, err)
	}
	if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
		t.Fatalf("%s: cluster rows != naive rows:\n%v\n%v",
			tag, rowSet(g, res.Table), rowSet(g, want))
	}
}

func TestApplyEndToEnd(t *testing.T) {
	g := movieGraph()
	c := mpcCluster(t, g, 2)
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a . ?a <spouse> ?b }`)
	checkAgainstNaive(t, c, g, q, "pre")
	v0 := c.Version()

	stats, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: true, S: "film3", P: "starring", O: "actor1"},
		{Insert: true, S: "film3", P: "starring", O: "newactor"}, // new vertex
		{Insert: false, S: "film2", P: "starring", O: "actor2"},
		{Insert: false, S: "nosuch", P: "starring", O: "nosuch"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 2 || stats.Deleted != 1 || stats.NotFound != 1 {
		t.Fatalf("stats = %+v, want 2/1/1", stats)
	}
	if c.Version() == v0 {
		t.Fatal("Version did not move on a committed batch")
	}
	checkAgainstNaive(t, c, g, q, "post")

	// Delete the last edge of a property, then re-create it: both
	// directions of the property-liveness edge cases, through the cluster.
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: false, S: "film1", P: "chronology", O: "film2"},
	}); err != nil {
		t.Fatal(err)
	}
	chrono := sparql.MustParse(`SELECT * WHERE { ?a <chronology> ?b }`)
	checkAgainstNaive(t, c, g, chrono, "property emptied")
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: true, S: "film2", P: "chronology", O: "film1"},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstNaive(t, c, g, chrono, "property revived")
}

// TestApplyHealsStalePlans builds a plan, commits a batch that changes the
// classification landscape under it (a property gains a crossing edge),
// and re-executes the stale plan: ExecutePlan must replan transparently
// and return the post-update answer.
func TestApplyHealsStalePlans(t *testing.T) {
	g := movieGraph()
	c := mpcCluster(t, g, 2)
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a . ?a <spouse> ?b }`)
	plan := c.Plan(q)
	if _, err := c.ExecutePlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}

	// spouse was internal to each community; an edge from community 1 to
	// community 2 can make it crossing under the maintained counters.
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: true, S: "actor1", P: "spouse", O: "person1"},
		{Insert: true, S: "film2", P: "starring", O: "actor1"},
	}); err != nil {
		t.Fatal(err)
	}

	res, err := c.ExecutePlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := liveStore(g).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rowSet(g, res.Table), rowSet(g, want)) {
		t.Fatalf("stale plan returned wrong rows:\n%v\n%v",
			rowSet(g, res.Table), rowSet(g, want))
	}
	// The caller's plan object must not have been mutated by the heal.
	if plan.version == c.Version() {
		t.Fatal("ExecutePlan mutated the caller's stale plan in place")
	}
}

func TestDriftReport(t *testing.T) {
	g := movieGraph()
	p, err := partition.SubjectHash{}.Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, nil, Config{BalanceEpsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}

	rep, ok := c.DriftReport()
	if !ok {
		t.Fatal("DriftReport not available for a vertex-disjoint layout")
	}
	if rep.Epsilon != 0.1 || rep.Cap < 1 || len(rep.PartSizes) != 2 {
		t.Fatalf("bad initial report: %+v", rep)
	}
	if rep.CrossingEdges != rep.CrossingEdgesBase {
		t.Fatalf("pre-update crossing edges %d != base %d", rep.CrossingEdges, rep.CrossingEdgesBase)
	}
	if rep.MaxPropertyWCC != 0 {
		t.Fatalf("MaxPropertyWCC %d before any batch, want 0 (monitor unseeded)", rep.MaxPropertyWCC)
	}

	// A committed batch seeds the monitor; inserts that connect existing
	// vertices across partitions push |E^c| above its base.
	var ops []rdf.Op
	for _, pair := range [][2]string{{"film1", "city1"}, {"film2", "city2"}, {"actor1", "city2"}} {
		ops = append(ops, rdf.Op{Insert: true, S: pair[0], P: "linksTo", O: pair[1]})
	}
	if _, err := c.Apply(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	rep2, ok := c.DriftReport()
	if !ok {
		t.Fatal("DriftReport vanished")
	}
	if rep2.CrossingEdges < rep2.CrossingEdgesBase {
		t.Fatalf("crossing edges %d below base %d", rep2.CrossingEdges, rep2.CrossingEdgesBase)
	}
	if rep2.MaxPropertyWCC <= 0 {
		t.Fatal("MaxPropertyWCC still 0 after the monitor was seeded")
	}
	sum := 0
	for _, s := range rep2.PartSizes {
		sum += s
	}
	if sum != g.NumVertices() {
		t.Fatalf("PartSizes sum %d != |V| %d", sum, g.NumVertices())
	}

	// VP has no vertex balance to drift.
	vl, err := partition.VP{}.Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := New(vl, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vc.DriftReport(); ok {
		t.Fatal("DriftReport claimed to cover a VP layout")
	}
}

func TestVPApply(t *testing.T) {
	g := movieGraph()
	vl, err := partition.VP{}.Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(vl, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> ?c }`)
	checkAgainstNaive(t, c, g, q, "pre")

	// Mutations including a brand-new property, which VP hash-places on a
	// site the layout never saw at build time.
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: true, S: "actor2", P: "awardedBy", O: "city1"},
		{Insert: true, S: "film1", P: "starring", O: "actor3"},
		{Insert: false, S: "film1", P: "starring", O: "actor2"},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstNaive(t, c, g, q, "post")
	checkAgainstNaive(t, c, g,
		sparql.MustParse(`SELECT * WHERE { ?a <awardedBy> ?b }`), "new property")
}

// TestConcurrentApplyAndExecute interleaves committed writes with a pool
// of concurrent readers (run under -race by the update-race CI target).
// Every read must return one of the states the writer actually committed
// — never a torn mix.
func TestConcurrentApplyAndExecute(t *testing.T) {
	// A plain BGP, and a property path: while <starring> is internal, the
	// in-process stores close the path directly (evalPathNode).
	for _, qs := range []string{
		`SELECT * WHERE { ?f <starring> ?a }`,
		`SELECT * WHERE { ?f <starring>+ ?a }`,
	} {
		t.Run(qs, func(t *testing.T) { concurrentApplyAndExecute(t, sparql.MustParse(qs)) })
	}
}

func concurrentApplyAndExecute(t *testing.T, q *sparql.Query) {
	g := movieGraph()
	c := mpcCluster(t, g, 2)

	// The writer toggles one triple; readers may see the graph with or
	// without it, so exactly two row counts are legal.
	base, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	nWithout := base.Table.Len()
	nWith := nWithout + 1

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Execute(q)
				if err != nil {
					errc <- err
					return
				}
				if n := res.Table.Len(); n != nWith && n != nWithout {
					errc <- fmt.Errorf("torn read: %d rows, want %d or %d", n, nWithout, nWith)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		op := rdf.Op{Insert: i%2 == 0, S: "filmX", P: "starring", O: "actorX"}
		if _, err := c.Apply(context.Background(), []rdf.Op{op}); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// recordingSite is a local site that also keeps every update batch it is
// sent, so a test can see what the coordinator shipped where.
type recordingSite struct {
	localSite
	got *[]UpdateBatch
}

func (s recordingSite) ApplyUpdate(ctx context.Context, batch UpdateBatch) (SiteUpdateResult, error) {
	*s.got = append(*s.got, batch)
	return s.localSite.ApplyUpdate(ctx, batch)
}

// TestApplyShipsEachSiteItsOwnOps pins the fan-out rule: a site receives
// exactly the trace ops whose triple it stores — both endpoints' sites for
// a crossing edge — and is not called at all when a batch has neither an
// op nor a new term for it.
func TestApplyShipsEachSiteItsOwnOps(t *testing.T) {
	g := movieGraph()
	p, err := core.MPC{}.Partition(g, partition.Options{K: 2, Epsilon: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]UpdateBatch, p.NumSites())
	sites := make([]Site, p.NumSites())
	for i := range sites {
		sites[i] = recordingSite{localSite{store.New(g, p.SiteTriples(i))}, &got[i]}
	}
	c, err := NewWithSites(p, func(string) bool { return false }, Config{}, sites)
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) rdf.VertexID {
		v, ok := g.Vertices.Lookup(name)
		if !ok {
			t.Fatalf("no vertex %q", name)
		}
		return rdf.VertexID(v)
	}
	home := func(name string) int { return int(p.Assign[id(name)]) }
	if home("actor1") == home("city1") {
		t.Fatal("movieGraph's two communities landed on one site; the test needs a crossing edge")
	}

	// One internal delete (no new terms): only the film's home site hears
	// of it.
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: false, S: "film1", P: "chronology", O: "film2"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 0
		if i == home("film1") {
			want = 1
		}
		if len(got[i]) != want {
			t.Fatalf("internal delete: site %d received %d batches, want %d", i, len(got[i]), want)
		}
	}
	if ops := got[home("film1")][0].Ops; len(ops) != 1 || ops[0].Insert {
		t.Fatalf("internal delete: shipped ops %+v, want the one delete", ops)
	}

	// One crossing insert between known vertices: both endpoints' sites
	// store it, so both get the op.
	for i := range got {
		got[i] = nil
	}
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: true, S: "actor1", P: "birthPlace", O: "city2"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if len(got[i]) != 1 || len(got[i][0].Ops) != 1 || !got[i][0].Ops[0].Insert {
			t.Fatalf("crossing insert: site %d received %+v, want one batch with the insert", i, got[i])
		}
	}

	// A new term reaches every site's dictionaries, ops or not.
	for i := range got {
		got[i] = nil
	}
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: true, S: "film1", P: "sequel", O: "film2"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		wantOps := 0
		if i == home("film1") {
			wantOps = 1
		}
		if len(got[i]) != 1 || len(got[i][0].Ops) != wantOps || got[i][0].Delta.Empty() {
			t.Fatalf("new property: site %d received %+v, want the delta and %d ops", i, got[i], wantOps)
		}
	}
}

// TestApplyReportsSiteBehind corrupts one site's store behind the
// coordinator's back — the state of a site that lost an acked write — and
// checks the next batch touching the lost triple fails with ErrSiteBehind,
// naming the site, instead of being silently absorbed.
func TestApplyReportsSiteBehind(t *testing.T) {
	g := movieGraph()
	c := mpcCluster(t, g, 2)
	p := c.layout.(*partition.Partitioning)
	s, _ := g.Vertices.Lookup("film1")
	pr, _ := g.Properties.Lookup("chronology")
	o, _ := g.Vertices.Lookup("film2")
	tr := rdf.Triple{S: rdf.VertexID(s), P: rdf.PropertyID(pr), O: rdf.VertexID(o)}
	site, _ := p.TripleSites(tr)
	if !c.Site(site).Delete(tr) {
		t.Fatalf("site %d does not hold %v", site, tr)
	}

	_, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: false, S: "film1", P: "chronology", O: "film2"},
	})
	if !errors.Is(err, ErrSiteBehind) {
		t.Fatalf("Apply over a corrupted site: got %v, want ErrSiteBehind", err)
	}
	if want := fmt.Sprintf("site %d", site); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
}
