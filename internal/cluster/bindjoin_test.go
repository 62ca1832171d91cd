package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
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

// bindGraph is a three-site layout built for the two-round path: <a>
// anchors x0..x(n-1) (site 0), each xi has a kind and links to yi, and yi
// has a tail to zi. y and z vertices alternate between sites 1 and 2, so
// link is the only crossing property, and the chain query decomposes into
// an anchored side (which takes the link, being larger) and a tail side. extra unanchored y→z tails make the unbound scan larger
// than any bound one.
func bindGraph(t *testing.T, n, extra int) (*rdf.Graph, *partition.Partitioning) {
	t.Helper()
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		g.AddTriple("a", "anchor", fmt.Sprintf("x%d", i))
		g.AddTriple(fmt.Sprintf("x%d", i), "kind", "k")
		g.AddTriple(fmt.Sprintf("x%d", i), "link", fmt.Sprintf("y%d", i))
	}
	for i := 0; i < n+extra; i++ {
		g.AddTriple(fmt.Sprintf("y%d", i), "tail", fmt.Sprintf("z%d", i))
	}
	g.Freeze()
	assign := make([]int32, g.NumVertices())
	for v := range assign {
		var idx int
		name := g.Vertices.String(uint32(v))
		if name[0] == 'y' || name[0] == 'z' {
			fmt.Sscanf(name[1:], "%d", &idx)
			assign[v] = int32(1 + idx%2)
		}
	}
	p, err := partition.FromAssignment(g, 3, assign)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

const chainQuery = `SELECT * WHERE { <a> <anchor> ?x . ?x <kind> ?k . ?x <link> ?y . ?y <tail> ?z }`

// subLogSite is an in-process site that logs every subquery it is sent,
// one ExecuteSub call each (it has no batch method).
type subLogSite struct {
	st   *store.Store
	mu   sync.Mutex
	subs []*sparql.Query
}

func (s *subLogSite) ExecuteSub(ctx context.Context, sub *sparql.Query, opts SubOpts) (*store.Table, SubStats, error) {
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return localSite{s.st}.ExecuteSub(ctx, sub, opts)
}

// recordedCluster builds a cluster over recording in-process sites.
func recordedCluster(t *testing.T, layout partition.SiteLayout, crossing sparql.CrossingTest, cfg Config) (*Cluster, []*subLogSite) {
	t.Helper()
	rec := make([]*subLogSite, layout.NumSites())
	sites := make([]Site, len(rec))
	for i := range rec {
		rec[i] = &subLogSite{st: store.New(layout.Graph(), layout.SiteTriples(i))}
		sites[i] = rec[i]
	}
	c, err := NewWithSites(layout, crossing, cfg, sites)
	if err != nil {
		t.Fatal(err)
	}
	return c, rec
}

// callsWith returns, per site, the recorded subqueries with a pattern on
// property prop.
func callsWith(rec []*subLogSite, prop string) [][]*sparql.Query {
	out := make([][]*sparql.Query, len(rec))
	for i, r := range rec {
		for _, sub := range r.subs {
			for _, tp := range sub.Patterns {
				if tp.P.Value == prop {
					out[i] = append(out[i], sub)
					break
				}
			}
		}
	}
	return out
}

// checkAgainstWhole compares a cluster answer with a whole-graph match.
func checkAgainstWhole(t *testing.T, g *rdf.Graph, got *store.Table, q *sparql.Query) {
	t.Helper()
	want, err := liveStore(g).Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rowSet(g, got), rowSet(g, want)) {
		t.Fatalf("%s:\ngot  %v\nwant %v", q, rowSet(g, got), rowSet(g, want))
	}
}

func TestBindJoinEmptyAnchorSkipsDependent(t *testing.T) {
	_, p := bindGraph(t, 3, 5)
	c, rec := recordedCluster(t, p, p.CrossingTest(), Config{})
	// z0 exists but anchors nothing: round 1 is empty.
	q := sparql.MustParse(`SELECT * WHERE { <z0> <anchor> ?x . ?x <kind> ?k . ?x <link> ?y . ?y <tail> ?z }`)
	if pl := c.Plan(q); pl.Independent || len(pl.Subs) < 2 {
		t.Fatalf("want a decomposed plan, got %d subs (independent %v)", len(pl.Subs), pl.Independent)
	}
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for site, subs := range callsWith(rec, "tail") {
		if len(subs) > 0 {
			t.Errorf("site %d evaluated the dependent side %v after an empty anchored side", site, subs)
		}
	}
	if res.Table.Len() != 0 {
		t.Fatalf("%d rows, want none", res.Table.Len())
	}
	vars := append([]string(nil), res.Table.Vars...)
	sort.Strings(vars)
	if !slices.Equal(vars, []string{"k", "x", "y", "z"}) {
		t.Fatalf("schema %v, want the query's variables", res.Table.Vars)
	}
}

func TestBindJoinInstancesGoToHomeSite(t *testing.T) {
	g, p := bindGraph(t, 3, 20)
	c, rec := recordedCluster(t, p, p.CrossingTest(), Config{})
	q := sparql.MustParse(chainQuery)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstWhole(t, g, res.Table, q)
	if res.Table.Len() != 3 {
		t.Fatalf("%d rows, want 3", res.Table.Len())
	}
	calls := 0
	for site, subs := range callsWith(rec, "tail") {
		for _, sub := range subs {
			calls++
			var tail sparql.TriplePattern
			for _, tp := range sub.Patterns {
				if tp.P.Value == "tail" {
					tail = tp
				}
			}
			if tail.S.IsVar {
				t.Fatalf("site %d got the unbound tail side %s", site, sub)
			}
			id, _ := g.Vertices.Lookup(tail.S.Value)
			if home := int(p.Assign[id]); home != site {
				t.Errorf("instance %s sent to site %d, its constant lives at %d", sub, site, home)
			}
		}
	}
	if calls != 3 {
		t.Fatalf("%d tail-side calls, want one per bound value (3)", calls)
	}
}

func TestBindJoinLimitFallsBackToUnbound(t *testing.T) {
	for _, n := range []int{bindLimit, bindLimit + 1} {
		g, p := bindGraph(t, n, 10)
		c, rec := recordedCluster(t, p, p.CrossingTest(), Config{})
		q := sparql.MustParse(chainQuery)
		res, err := c.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstWhole(t, g, res.Table, q)
		unbound, instances := 0, 0
		for _, subs := range callsWith(rec, "tail") {
			for _, sub := range subs {
				if sub.Patterns[len(sub.Patterns)-1].S.IsVar {
					unbound++
				} else {
					instances++
				}
			}
		}
		switch {
		case n <= bindLimit && (unbound != 0 || instances != n):
			t.Errorf("n=%d: %d unbound calls and %d instances, want 0 and %d", n, unbound, instances, n)
		case n > bindLimit && (unbound != c.NumSites() || instances != 0):
			t.Errorf("n=%d: %d unbound calls and %d instances, want %d and 0", n, unbound, instances, c.NumSites())
		}
	}
}

func TestBindJoinNeverBindsPropertyVariables(t *testing.T) {
	g := movieGraph()
	vertex := func(vars ...string) *store.Table { return store.NewTable(vars, make([]store.VarKind, len(vars))) }
	propTable := store.NewTable([]string{"pp", "x"}, []store.VarKind{store.KindProperty, store.KindVertex})
	propTable.AppendRow(0, 1)
	cases := []struct {
		sub   string
		first []*store.Table
	}{
		// ?pp is a property on both sides.
		{`SELECT * WHERE { ?y ?pp ?z }`, []*store.Table{propTable}},
		// ?pp is a property in round 1 and a vertex here: other ID space.
		{`SELECT * WHERE { ?pp <spouse> ?z }`, []*store.Table{propTable}},
		// ?pp is a vertex in round 1 and a property here.
		{`SELECT * WHERE { ?y ?pp ?z }`, []*store.Table{vertex("pp")}},
	}
	for _, tc := range cases {
		if v, _ := bindChoice(sparql.MustParse(tc.sub), tc.first); v != "" {
			t.Errorf("%s: bound ?%s", tc.sub, v)
		}
	}
	// End to end: a property variable shared across the anchored side and
	// the dependent side.
	p, err := partition.SubjectHash{}.Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, rec := recordedCluster(t, p, p.CrossingTest(), Config{})
	for _, qs := range []string{
		`SELECT * WHERE { <actor1> ?pp ?x . ?x ?pp ?y . ?y ?q ?z }`,
		`SELECT * WHERE { <film1> ?pp ?x . ?x <birthPlace> ?c . ?d ?pp ?c }`,
	} {
		q := sparql.MustParse(qs)
		props := map[string]bool{}
		for _, tp := range q.Patterns {
			props[tp.P.Value] = !tp.P.IsVar
		}
		res, err := c.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstWhole(t, g, res.Table, q)
		for site, r := range rec {
			for _, sub := range r.subs {
				for _, tp := range sub.Patterns {
					if !tp.P.IsVar && !props[tp.P.Value] {
						t.Errorf("site %d got %s: a property variable was bound", site, sub)
					}
				}
			}
			r.subs = nil
		}
	}
}

func TestBindJoinVPInstancesStayOnPlanSites(t *testing.T) {
	g, _ := bindGraph(t, 4, 6)
	vpl, err := partition.VP{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, rec := recordedCluster(t, vpl, nil, Config{})
	q := sparql.MustParse(chainQuery)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstWhole(t, g, res.Table, q)
	bound := 0
	for site, r := range rec {
		for _, sub := range r.subs {
			for _, tp := range sub.Patterns {
				pid, _ := g.Properties.Lookup(tp.P.Value)
				if owner := int(vpl.SiteOf(rdf.PropertyID(pid))); owner != site {
					t.Errorf("site %d got %s, whose property lives at site %d", site, sub, owner)
				}
				if tp.P.Value != "anchor" && (!tp.S.IsVar || !tp.O.IsVar) {
					bound++
				}
			}
		}
	}
	if bound == 0 {
		for site, r := range rec {
			t.Log(site, r.subs)
		}
		t.Fatal("no bound instance was sent; the VP plan did not take the bound round")
	}
}

// TestBindJoinConcurrentApply flips the data under both rounds at once
// while readers execute one shared plan: each answer must be the whole
// before-state or the whole after-state answer. A reader whose anchored
// round saw one state and bound round the other would get no rows.
func TestBindJoinConcurrentApply(t *testing.T) {
	g, p := bindGraph(t, 2, 2)
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// State A anchors x0 (y0 has a tail); state B anchors x1 (y1 has one).
	toB := []rdf.Op{
		{Insert: false, S: "a", P: "anchor", O: "x0"},
		{Insert: false, S: "y0", P: "tail", O: "z0"},
	}
	toA := []rdf.Op{
		{Insert: true, S: "a", P: "anchor", O: "x0"},
		{Insert: true, S: "y0", P: "tail", O: "z0"},
		{Insert: false, S: "a", P: "anchor", O: "x1"},
		{Insert: false, S: "y1", P: "tail", O: "z1"},
	}
	back := []rdf.Op{
		{Insert: true, S: "a", P: "anchor", O: "x1"},
		{Insert: true, S: "y1", P: "tail", O: "z1"},
	}
	plan := c.Plan(sparql.MustParse(chainQuery))
	answer := func() string {
		res, err := c.ExecutePlan(ctx, plan)
		if err != nil {
			t.Error(err)
			return ""
		}
		return fmt.Sprint(rowSet(g, res.Table))
	}
	if _, err := c.Apply(ctx, toA); err != nil {
		t.Fatal(err)
	}
	stateA := answer()
	if _, err := c.Apply(ctx, append(append([]rdf.Op(nil), toB...), back...)); err != nil {
		t.Fatal(err)
	}
	stateB := answer()
	if stateA == stateB || stateA == "[]" || stateB == "[]" {
		t.Fatalf("states do not differ: A %s, B %s", stateA, stateB)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				if got := answer(); got != stateA && got != stateB {
					t.Errorf("mixed-state answer %s (A %s, B %s)", got, stateA, stateB)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Apply(ctx, toA); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Apply(ctx, append(append([]rdf.Op(nil), toB...), back...)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkExecuteAnchoredNonIEQ executes instances of the anchored
// non-IEQ WatDiv templates L1, F2 and C2 on an in-process 8-site MPC
// cluster: the anchored round, the empty short-circuit and the bound
// round. It reports the mean subquery rows the coordinator joins per
// query (tuples/op).
func BenchmarkExecuteAnchoredNonIEQ(b *testing.B) {
	g := datagen.WatDiv{}.Generate(20000, 1)
	p, err := core.MPC{}.Partition(g, partition.Options{K: 8, Epsilon: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		b.Fatal(err)
	}
	var plans []*Plan
	for seed := int64(1); len(plans) < 30 && seed < 200; seed++ {
		for _, nq := range workload.WatDivTemplates(g, seed) {
			if nq.Name != "L1" && nq.Name != "F2" && nq.Name != "C2" {
				continue
			}
			if pl := c.Plan(nq.Query); !pl.Independent {
				plans = append(plans, pl)
			}
		}
	}
	if len(plans) == 0 {
		b.Fatal("no anchored non-IEQ instances at this scale")
	}
	ctx := context.Background()
	shipped := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.ExecutePlan(ctx, plans[i%len(plans)])
		if err != nil {
			b.Fatal(err)
		}
		shipped += res.Stats.TuplesShipped
	}
	b.ReportMetric(float64(shipped)/float64(b.N), "tuples/op")
}
