package oracle

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/datagen"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// queryOptions builds RandOptions whose constant pools name terms the
// Random generator actually emits (plus one unknown of each kind, so the
// missing-constant paths get exercised).
func queryOptions(maxPatterns int) sparql.RandOptions {
	return sparql.RandOptions{
		MaxPatterns:    maxPatterns,
		VertexConsts:   []string{"v0", "v1", "v2", "v3", "_:b0", `"L0"`, "missing"},
		PropertyConsts: []string{"p0", "p1", "p2", "nosuchp"},
	}
}

// graphConfigs is the fixed graph corpus: pool sizes, property counts, and
// skew chosen to cover sparse and dense, uniform and hubby shapes.
var graphConfigs = []struct {
	v, p    int
	skew    float64
	triples int
}{
	{24, 3, 0, 120},
	{40, 5, 0, 200},
	{40, 5, 2.0, 220},
	{60, 8, 0, 300},
	{30, 2, 0, 160},
	{50, 6, 1.6, 260},
	{80, 10, 0, 320},
	{36, 4, 2.5, 180},
	{64, 6, 0, 280},
	{48, 8, 1.3, 240},
}

// TestDifferentialCorpus is the tentpole: a mixed corpus of plain BGPs and
// generalized operator-tree queries (OPTIONAL / UNION / FILTER / property
// paths) in which, for every fixed-seed (graph, query) pair, every strategy
// × partitioner × transport combination (loopback TCP included on the first
// graphs) must return exactly the oracle's canonicalized bindings, and for
// BGPs the metamorphic invariants must hold. A §12-style update batch lands
// every few queries, so the corpus also checks the post-update world. In
// default mode it demands at least 300 checked pairs; -short runs a 3-graph
// subset.
func TestDifferentialCorpus(t *testing.T) {
	graphs, queriesPerGraph := graphConfigs, 44
	if testing.Short() {
		graphs, queriesPerGraph = graphs[:3], 14
	}
	checked, skipped := 0, 0
	var byClass = map[string]int{}
	watdivPerGraph := 12
	if testing.Short() {
		watdivPerGraph = 4
	}
	shapedChecked, shapedSkipped := 0, 0
	shapedByKind := map[string]int{}
	twoRound := map[string]int{}
	anchored := map[string]int64{} // anchored merges verified, per combo
	closeEnv := func(env *Env) {
		for name, n := range env.AnchorChecks() {
			anchored[name] += n
		}
		env.Close()
	}
	checkShaped := func(env *Env, g *rdf.Graph, rng *rand.Rand, kind string, gi, wi int) {
		t.Helper()
		q, ok := watdivShaped(rng, g, kind)
		if !ok {
			return
		}
		res, err := env.Check(q)
		if err != nil {
			t.Fatalf("graph %d WatDiv-shaped %d:\n%s\n%v", gi, wi, q, err)
		}
		if res.Skipped {
			shapedSkipped++
			return
		}
		shapedChecked++
		shapedByKind[kind]++
		for _, cb := range env.combos {
			if cb.partial {
				continue
			}
			n := twoRound[cb.name] // recorded even when zero
			if twoRoundPlan(cb.c, q) {
				n++
			}
			twoRound[cb.name] = n
		}
		for _, d := range res.Divergences {
			t.Errorf("graph %d WatDiv-shaped %d (%s anchor, %d oracle rows):\n%s\n%s", gi, wi, kind, res.OracleRows, q, d)
		}
	}
	for gi, gc := range graphs {
		g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, int64(100+gi))
		env, err := NewEnv(g, Options{Broadcast: true, Block: true, TCP: gi < 2})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + gi)))
		fresh := 0
		for qi := 0; qi < queriesPerGraph; qi++ {
			if qi > 0 && qi%8 == 0 {
				// Update-stream interleaving: mutate the shared world, then
				// keep checking queries against the post-update graph.
				ops := randomOps(rng, g, 2+rng.Intn(5), &fresh)
				if _, err := env.ApplyBatch(context.Background(), ops); err != nil {
					t.Fatalf("graph %d batch before query %d: %v", gi, qi, err)
				}
			}
			var q *sparql.Query
			if qi%2 == 0 {
				q = sparql.RandomQuery(rng, genQueryOptions())
			} else {
				o := queryOptions(4)
				o.Disconnected = qi%3 == 0
				q = sparql.RandomBGP(rng, o)
			}
			res, err := env.Check(q)
			if err != nil {
				t.Fatalf("graph %d query %d:\n%s\n%v", gi, qi, q, err)
			}
			if res.Skipped {
				skipped++
				continue
			}
			checked++
			byClass[q.OperatorClass()]++
			for _, d := range res.Divergences {
				t.Errorf("graph %d query %d (%d oracle rows):\n%s\n%s", gi, qi, res.OracleRows, q, d)
			}
		}
		// WatDiv-shaped anchored BGPs, from their own stream so the random
		// cases above stay as they were.
		wrng := rand.New(rand.NewSource(int64(3000 + gi)))
		for wi := 0; wi < watdivPerGraph; wi++ {
			checkShaped(env, g, wrng, anchorKinds[wi%3], gi, wi) // "many" needs the hub graph
		}
		closeEnv(env)
	}
	// One hub graph: a Zipf-skewed subject distribution gives a vertex far
	// more distinct out-neighbours than the bound-round limit.
	hub := datagen.Random{V: 300, P: 4, Skew: 2.5}.Generate(1200, 4242)
	env, err := NewEnv(hub, Options{Block: true})
	if err != nil {
		t.Fatalf("hub graph: %v", err)
	}
	wrng := rand.New(rand.NewSource(4243))
	for wi := 0; wi < 2*watdivPerGraph; wi++ {
		checkShaped(env, hub, wrng, anchorKinds[wi%len(anchorKinds)], len(graphs), wi)
	}
	closeEnv(env)
	// Every combination that merges per-site answers of a vertex-disjoint
	// layout must have taken the anchored path, each merge checked against
	// the hash union. VP has no anchors; partial evaluation never merges
	// per-site IEQ answers.
	t.Logf("anchored merges verified per combo: %v", anchored)
	for name, n := range anchored {
		if n == 0 && name != "vp" && !strings.HasSuffix(name, "/partial-eval") {
			t.Errorf("combo %s never took the anchored merge", name)
		}
	}
	t.Logf("WatDiv-shaped: checked %d cases by anchor size %v, skipped %d; two-round plans per combo %v",
		shapedChecked, shapedByKind, shapedSkipped, twoRound)
	if !testing.Short() {
		for _, kind := range anchorKinds {
			if shapedByKind[kind] == 0 {
				t.Errorf("no WatDiv-shaped case with a %q anchored side was checked", kind)
			}
		}
		for name, n := range twoRound {
			if n == 0 {
				t.Errorf("combo %s never planned a two-round case", name)
			}
		}
	}
	checked += shapedChecked
	skipped += shapedSkipped
	t.Logf("checked %d cases (%v), skipped %d (oracle budget)", checked, byClass, skipped)
	if !testing.Short() && checked < 300 {
		t.Fatalf("only %d checked cases; corpus must cover at least 300", checked)
	}
	if checked == 0 {
		t.Fatal("no cases checked at all")
	}
	for _, class := range sparql.OperatorClasses {
		if !testing.Short() && byClass[class] == 0 {
			t.Errorf("corpus checked no %s-class queries", class)
		}
	}
}

// anchorKinds are the anchored-side sizes the WatDiv-shaped cases cover:
// the number of distinct values the anchor pattern gives its join
// variable. "many" is well above the coordinator's bound-round limit (64),
// so it exercises the unbound fallback; the others exercise the empty
// short-circuit and the bound round.
var anchorKinds = []string{"zero", "one", "few", "many"}

// watdivShaped builds a WatDiv-style linear, snowflake or complex BGP over
// g's properties whose first pattern anchors ?v0 at a constant chosen from
// the live data to give the requested number of distinct ?v0 values. ok
// is false when g has no anchor of that size.
func watdivShaped(rng *rand.Rand, g *rdf.Graph, kind string) (q *sparql.Query, ok bool) {
	// Distinct neighbours per (vertex, property, direction), and per vertex
	// over all properties for the "many" anchors.
	type key struct {
		v   rdf.VertexID
		p   rdf.PropertyID
		out bool
	}
	nbrs := map[key]map[rdf.VertexID]bool{}
	outAll := map[rdf.VertexID]map[rdf.VertexID]bool{}
	add := func(k key, w rdf.VertexID) {
		if nbrs[k] == nil {
			nbrs[k] = map[rdf.VertexID]bool{}
		}
		nbrs[k][w] = true
	}
	for _, i := range g.LiveTriples() {
		tr := g.Triple(i)
		add(key{tr.S, tr.P, true}, tr.O)
		add(key{tr.O, tr.P, false}, tr.S)
		if outAll[tr.S] == nil {
			outAll[tr.S] = map[rdf.VertexID]bool{}
		}
		outAll[tr.S][tr.O] = true
	}
	v := func(id rdf.VertexID) string { return sparql.Const(g.Vertices.String(uint32(id))).String() }
	prop := func() string {
		return sparql.Const(g.Properties.String(uint32(rng.Intn(g.NumProperties())))).String()
	}
	var anchor string
	switch kind {
	case "zero":
		anchor = "?v0 " + prop() + " <missing>"
		if rng.Intn(2) == 0 {
			// A real vertex without that property: empty through the data,
			// not through the dictionary.
			id := rdf.VertexID(rng.Intn(g.NumVertices()))
			p := rdf.PropertyID(rng.Intn(g.NumProperties()))
			if len(nbrs[key{id, p, true}]) == 0 {
				anchor = v(id) + " " + sparql.Const(g.Properties.String(uint32(p))).String() + " ?v0"
			}
		}
	case "one", "few":
		lo, hi := 1, 1
		if kind == "few" {
			lo, hi = 2, 8
		}
		var keys []key
		for k, set := range nbrs {
			if len(set) >= lo && len(set) <= hi {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return nil, false
		}
		// Map order is random; sort for a reproducible pick.
		slices.SortFunc(keys, func(a, b key) int {
			if c := cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.p, b.p)); c != 0 {
				return c
			}
			switch {
			case a.out == b.out:
				return 0
			case a.out:
				return 1
			}
			return -1
		})
		k := keys[rng.Intn(len(keys))]
		p := sparql.Const(g.Properties.String(uint32(k.p))).String()
		if k.out {
			anchor = v(k.v) + " " + p + " ?v0"
		} else {
			anchor = "?v0 " + p + " " + v(k.v)
		}
	case "many":
		hub, best := rdf.VertexID(0), 0
		for s, set := range outAll {
			if len(set) > best || (len(set) == best && s < hub) {
				hub, best = s, len(set)
			}
		}
		if best <= 100 {
			return nil, false
		}
		anchor = v(hub) + " ?pa ?v0"
	}
	p := make([]string, 6)
	for i := range p {
		p[i] = prop()
	}
	var body string
	switch rng.Intn(5) {
	case 0: // L1-like
		body = fmt.Sprintf("?v0 %s ?v1 . ?v1 %s ?v2", p[0], p[1])
	case 1: // L5-like
		body = fmt.Sprintf("?v0 %s ?v1 . ?v1 %s ?v2 . ?v2 %s ?v3", p[0], p[1], p[2])
	case 2: // F1-like
		body = fmt.Sprintf("?v0 %s ?v1 . ?v0 %s ?v2 . ?v1 %s ?v3 . ?v3 %s ?v4", p[0], p[1], p[2], p[3])
	case 3: // F2-like
		body = fmt.Sprintf("?v0 %s ?v1 . ?v1 %s ?v2 . ?v1 %s ?v3", p[0], p[1], p[2])
	default: // C2-like
		body = fmt.Sprintf("?v0 %s ?v1 . ?v1 %s ?v2 . ?v2 %s ?v3 . ?v0 %s ?v4 . ?v4 %s ?v5", p[0], p[1], p[2], p[3], p[4])
	}
	return sparql.MustParse("SELECT * WHERE { " + anchor + " . " + body + " }"), true
}

// twoRoundPlan reports whether c plans q with both an anchored subquery
// (a constant subject or object) and an unanchored one, which is when the
// coordinator runs the anchored round and then the bound round.
func twoRoundPlan(c *cluster.Cluster, q *sparql.Query) bool {
	p := c.Plan(q)
	if p.Independent {
		return false
	}
	anchored := 0
	for _, sub := range p.Subs {
		for _, tp := range sub.Patterns {
			if !tp.S.IsVar || !tp.O.IsVar {
				anchored++
				break
			}
		}
	}
	return anchored > 0 && anchored < len(p.Subs)
}

// TestDifferentialTCP repeats a slice of the corpus with a loopback-TCP
// combination in the mix: the crossing-aware MPC path over real transport
// sites must also match the oracle bit-for-bit.
func TestDifferentialTCP(t *testing.T) {
	for gi, gc := range graphConfigs[:2] {
		g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, int64(100+gi))
		env, err := NewEnv(g, Options{TCP: true, Block: true})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		foundTCP, foundBlockTCP := false, false
		for _, name := range env.Combos() {
			if strings.Contains(name, "tcp") {
				foundTCP = true
			}
			if strings.Contains(name, "block/tcp") {
				foundBlockTCP = true
			}
		}
		if !foundTCP || !foundBlockTCP {
			t.Fatal("TCP and block/tcp combinations missing from env")
		}
		rng := rand.New(rand.NewSource(int64(2000 + gi)))
		for qi := 0; qi < 8; qi++ {
			o := queryOptions(3)
			o.Disconnected = qi%4 == 0
			q := sparql.RandomBGP(rng, o)
			res, err := env.Check(q)
			if err != nil {
				t.Fatalf("graph %d query %d:\n%s\n%v", gi, qi, q, err)
			}
			for _, d := range res.Divergences {
				t.Errorf("graph %d query %d:\n%s\n%s", gi, qi, q, d)
			}
		}
		env.Close()
	}
}

// TestPR2JoinFixesPinned pins the two join-path fixes of the second PR
// through the oracle harness rather than through hand-built tables.
func TestPR2JoinFixesPinned(t *testing.T) {
	g := datagen.Random{V: 40, P: 5}.Generate(200, 42)
	env, err := NewEnv(g, Options{Broadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	// Kind derivation (emptyTableFor): a localized subquery whose constant
	// is absent from the data yields an empty table whose variable-property
	// column must be KindProperty, or the coordinator join against the
	// second pattern's bindings errors with a kind conflict instead of
	// returning the correct empty result.
	queries := []string{
		`SELECT * WHERE { <missing> ?pp ?x . ?y ?pp ?z }`,
		`SELECT * WHERE { <missing> ?pp <alsomissing> . ?y ?pp ?z . ?z <p0> ?w }`,
		`SELECT ?pp WHERE { <missing> ?pp ?x . ?y ?pp ?z }`,
	}
	for _, s := range queries {
		q := sparql.MustParse(s)
		res, err := env.Check(q)
		if err != nil {
			t.Fatalf("%s\n%v", q, err)
		}
		if res.Skipped {
			t.Fatalf("%s unexpectedly skipped", q)
		}
		for _, d := range res.Divergences {
			t.Errorf("%s\n%s", q, d)
		}
		if res.OracleRows != 0 {
			t.Fatalf("%s: oracle found %d rows for a query with a missing constant", q, res.OracleRows)
		}
	}
}

// corruptSite wraps a per-site store and sabotages its answers in a chosen
// way. It stands in for a real evaluation bug: the differential harness
// must catch every variant. others are the honest sites' stores: the
// coordinator deduplicates across sites, so a dropped row only shows when
// no other site returns it too.
type corruptSite struct {
	st     *store.Store
	others []*store.Store
	mode   string
}

// dropUnique removes the smallest row of tab that no store in others
// returns for sub, so the choice does not depend on the matcher's row
// order. Every store compiles sub to the same column order.
func dropUnique(tab *store.Table, sub *sparql.Query, others []*store.Store) (*store.Table, error) {
	elsewhere := map[string]bool{}
	for _, st := range others {
		t, err := st.Match(sub)
		if err != nil {
			return nil, err
		}
		for r := 0; r < t.Len(); r++ {
			elsewhere[fmt.Sprint(t.Row(r))] = true
		}
	}
	drop := -1
	for r := 0; r < tab.Len(); r++ {
		if !elsewhere[fmt.Sprint(tab.Row(r))] && (drop < 0 || slices.Compare(tab.Row(r), tab.Row(drop)) < 0) {
			drop = r
		}
	}
	if drop < 0 {
		return tab, nil
	}
	out := store.NewTable(tab.Vars, tab.Kinds)
	for r := 0; r < tab.Len(); r++ {
		if r != drop {
			out.AppendRow(tab.Row(r)...)
		}
	}
	return out, nil
}

func (s corruptSite) ExecuteSub(_ context.Context, sub *sparql.Query, _ cluster.SubOpts) (*store.Table, cluster.SubStats, error) {
	tab, err := s.st.Match(sub)
	if err != nil || tab.Len() == 0 {
		return tab, cluster.SubStats{}, err
	}
	switch s.mode {
	case "drop-row":
		tab, err = dropUnique(tab, sub, s.others)
	case "extra-row":
		if tab.Stride() > 0 {
			row := append([]uint32(nil), tab.Row(0)...)
			row[0] = (row[0] + 1) % uint32(s.st.Graph().NumVertices())
			tab.AppendRow(row...)
		}
	case "zero-col":
		if tab.Stride() > 0 {
			for r := 0; r < tab.Len(); r++ {
				tab.Data[r*tab.Stride()] = 0
			}
		}
	case "drop-col":
		if tab.Stride() > 1 {
			cut := store.NewTable(tab.Vars[1:], tab.Kinds[1:])
			for r := 0; r < tab.Len(); r++ {
				cut.AppendRow(tab.Row(r)[1:]...)
			}
			tab = cut
		}
	}
	return tab, cluster.SubStats{}, err
}

type honestSite struct{ st *store.Store }

func (s honestSite) ExecuteSub(_ context.Context, sub *sparql.Query, _ cluster.SubOpts) (*store.Table, cluster.SubStats, error) {
	tab, err := s.st.Match(sub)
	return tab, cluster.SubStats{}, err
}

// TestInjectedBugIsCaught builds a cluster whose site 0 deliberately
// corrupts its join inputs and asserts the differential comparison flags
// every corruption mode — the acceptance check that a real join bug cannot
// slip through the harness. The drop-column variant must instead surface
// the coordinator's explicit schema-mismatch error (the PR 2 union fix).
func TestInjectedBugIsCaught(t *testing.T) {
	g := datagen.Random{V: 40, P: 5}.Generate(220, 7)
	env, err := NewEnv(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := env.MPC
	stores := make([]*store.Store, p.NumSites())
	for i := range stores {
		stores[i] = store.New(g, p.SiteTriples(i))
	}
	// A connected two-pattern query with matches spread over sites, so the
	// corrupted site really contributes rows.
	q := sparql.MustParse(`SELECT * WHERE { ?x ?pp ?y . ?y ?qq ?z }`)
	want, err := Eval(g, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("probe query matches nothing; corpus graph unsuitable")
	}

	for _, mode := range []string{"drop-row", "extra-row", "zero-col", "drop-col"} {
		sites := make([]cluster.Site, len(stores))
		for i, st := range stores {
			if i == 0 {
				sites[i] = corruptSite{st, stores[1:], mode}
			} else {
				sites[i] = honestSite{st}
			}
		}
		c, err := cluster.NewWithSites(p, env.crossing, cluster.Config{}, sites)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Execute(q)
		if mode == "drop-col" {
			if err == nil || !strings.Contains(err.Error(), "schema mismatch") {
				t.Errorf("drop-col: want explicit schema-mismatch error, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if d := Diff(want.ProjectQuery(q), Canonicalize(res.Table), g); d == nil {
			t.Errorf("%s: injected bug not detected by differential comparison", mode)
		}
	}

	// Sanity: all-honest sites must agree with the oracle.
	sites := make([]cluster.Site, len(stores))
	for i, st := range stores {
		sites[i] = honestSite{st}
	}
	c, err := cluster.NewWithSites(p, env.crossing, cluster.Config{}, sites)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(want.ProjectQuery(q), Canonicalize(res.Table), g); d != nil {
		t.Fatalf("honest cluster diverges: %v", d)
	}
}

// FuzzDifferential lets the fuzzer hunt for (graph seed, query seed) pairs
// on which any execution path diverges from the oracle. The fixed corpus
// below reruns as seeds on every plain `go test`.
func FuzzDifferential(f *testing.F) {
	for gs := int64(1); gs <= 4; gs++ {
		for qs := int64(1); qs <= 3; qs++ {
			f.Add(gs, qs)
		}
	}
	f.Fuzz(func(t *testing.T, graphSeed, querySeed int64) {
		g := datagen.Random{V: 24, P: 4}.Generate(110, graphSeed)
		env, err := NewEnv(g, Options{RowLimit: 1500})
		if err != nil {
			// Partitioner preconditions (e.g. the balance cap on an
			// adversarial graph) are not the property under test here.
			t.Skip(err)
		}
		rng := rand.New(rand.NewSource(querySeed))
		o := queryOptions(4)
		o.Disconnected = querySeed%3 == 0
		q := sparql.RandomBGP(rng, o)
		res, err := env.Check(q)
		if err != nil {
			t.Fatalf("%s\n%v", q, err)
		}
		for _, d := range res.Divergences {
			t.Errorf("graphSeed=%d querySeed=%d:\n%s\n%s", graphSeed, querySeed, q, d)
		}
	})
}
