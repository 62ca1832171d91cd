package cluster

// Regression tests for three join-path bugs:
//
//  1. emptyTableFor marked every column KindVertex, so a join against a
//     table binding the same variable as a property failed with a spurious
//     kind conflict instead of producing the correct empty result.
//  2. unionTables silently wrote dictionary ID 0 for variables a table did
//     not bind, aliasing whatever term has ID 0 into results.
//  3. hashJoin documented building its hash index on the smaller side but
//     always built on its second argument.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mpc/internal/core"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

func TestEmptyTableForKinds(t *testing.T) {
	cases := []struct {
		query string
		want  map[string]store.VarKind
	}{
		{
			`SELECT * WHERE { ?x ?p ?y }`,
			map[string]store.VarKind{"x": store.KindVertex, "p": store.KindProperty, "y": store.KindVertex},
		},
		{
			`SELECT * WHERE { ?x <q> ?y . ?a ?p ?b }`,
			map[string]store.VarKind{
				"x": store.KindVertex, "y": store.KindVertex,
				"a": store.KindVertex, "p": store.KindProperty, "b": store.KindVertex,
			},
		},
		{
			// Constant (even unknown) properties leave only vertex variables.
			`SELECT * WHERE { ?x <nope> ?y }`,
			map[string]store.VarKind{"x": store.KindVertex, "y": store.KindVertex},
		},
	}
	for _, tc := range cases {
		tab := emptyTableFor(sparql.MustParse(tc.query))
		if tab.Len() != 0 {
			t.Fatalf("%s: empty table has %d rows", tc.query, tab.Len())
		}
		if len(tab.Vars) != len(tc.want) {
			t.Fatalf("%s: schema %v, want vars of %v", tc.query, tab.Vars, tc.want)
		}
		for i, v := range tab.Vars {
			if tab.Kinds[i] != tc.want[v] {
				t.Errorf("%s: ?%s has kind %d, want %d", tc.query, v, tab.Kinds[i], tc.want[v])
			}
		}
	}
}

// The end-to-end shape of bug 1: a subquery evaluated over an empty site
// list yields an empty table that must still join cleanly against a table
// binding the same variable as a property.
func TestEmptyTableJoinsAgainstPropertyBinding(t *testing.T) {
	g := movieGraph()
	q := sparql.MustParse(`SELECT * WHERE { ?x ?p ?y }`)

	layout, err := partition.VP{}.Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(layout, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tables, _, err := c.evalPerSub(context.Background(), &readState{pinned: true}, []*sparql.Query{q}, [][]int{nil}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	empty := tables[0]
	if empty.Len() != 0 {
		t.Fatalf("empty site list produced %d rows", empty.Len())
	}

	bound, err := fullStore(g).Match(q) // binds ?p as a property
	if err != nil {
		t.Fatal(err)
	}
	joined, err := hashJoin(empty, bound, nil)
	if err != nil {
		t.Fatalf("join against property binding failed: %v", err)
	}
	if joined.Len() != 0 {
		t.Fatalf("join of empty table produced %d rows", joined.Len())
	}

	// The pre-fix behavior: with ?p mislabeled KindVertex the same join is
	// rejected as a kind conflict.
	broken := &store.Table{Vars: empty.Vars, Kinds: make([]store.VarKind, len(empty.Vars))}
	if _, err := hashJoin(broken, bound, nil); err == nil {
		t.Fatal("all-vertex schema unexpectedly joined against a property binding")
	}
}

// VP queries whose patterns all name unknown properties (siteOf == -2 for
// every pattern, more than one pattern) must flow through the task-grouping
// path and return an empty result, not an error.
func TestVPMultipleUnknownProperties(t *testing.T) {
	g := movieGraph()
	layout, err := partition.VP{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(layout, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{
		`SELECT * WHERE { ?x <nope1> ?y . ?y <nope2> ?z }`,
		`SELECT * WHERE { ?f <starring> ?a . ?a <nope1> ?c . ?x <nope2> ?c }`,
	} {
		res, err := c.Execute(sparql.MustParse(qs))
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if res.Table.Len() != 0 {
			t.Fatalf("%s: got %d rows, want 0", qs, res.Table.Len())
		}
	}
}

// tableRows materializes a flat table's rows for comparison in tests.
func tableRows(t *store.Table) [][]uint32 {
	var out [][]uint32
	for r := 0; r < t.Len(); r++ {
		out = append(out, append([]uint32(nil), t.Row(r)...))
	}
	return out
}

func TestUnionTablesSchemaMismatch(t *testing.T) {
	vt := func(vars ...string) []store.VarKind { return make([]store.VarKind, len(vars)) }
	ab := &store.Table{Vars: []string{"x", "y"}, Kinds: vt("x", "y"), Data: []uint32{1, 2}}
	onlyA := &store.Table{Vars: []string{"x"}, Kinds: vt("x"), Data: []uint32{3}}

	// A table lacking one of the union's variables must be an explicit
	// error; the old code silently filled the column with dictionary ID 0.
	if _, err := unionTables([]*store.Table{ab, onlyA}); err == nil {
		t.Fatal("union accepted a table missing variable ?y")
	} else if !strings.Contains(err.Error(), "schema mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Same mismatch with the wider table second.
	if _, err := unionTables([]*store.Table{onlyA, ab}); err == nil {
		t.Fatal("union accepted a table with an extra variable ?y")
	}

	// Permuted columns are not a mismatch: rows align by variable name.
	ba := &store.Table{Vars: []string{"y", "x"}, Kinds: vt("y", "x"), Data: []uint32{2, 1, 9, 8}}
	got, err := unionTables([]*store.Table{ab, ba})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint32{{1, 2}, {8, 9}} // {1,2} deduplicated across tables
	if !reflect.DeepEqual(tableRows(got), want) {
		t.Fatalf("union rows = %v, want %v", tableRows(got), want)
	}
}

// vertexTable builds an all-vertex-kind binding table for join tests.
func vertexTable(vars []string, rows ...[]uint32) *store.Table {
	t := store.NewTable(vars, make([]store.VarKind, len(vars)))
	for _, row := range rows {
		t.AppendRow(row...)
	}
	return t
}

func TestHashJoinBuildsOnSmallerSide(t *testing.T) {
	reg := obs.NewRegistry()
	met := newClusterMetrics(reg)

	const bigN, smallN = 40, 3
	big := vertexTable([]string{"k", "b"})
	for i := 0; i < bigN; i++ {
		big.AppendRow(uint32(i%smallN), uint32(i))
	}
	small := vertexTable([]string{"k", "s"})
	for i := 0; i < smallN; i++ {
		small.AppendRow(uint32(i), uint32(100+i))
	}

	if _, err := hashJoin(big, small, &met); err != nil {
		t.Fatal(err)
	}
	h := reg.Snapshot().Histograms["join.build_rows"]
	if h.Count != 1 || h.Sum != smallN {
		t.Fatalf("build side after join(big, small): count=%d sum=%d, want 1 build of %d rows",
			h.Count, h.Sum, smallN)
	}
	// Swapping the arguments must still build on the small side.
	if _, err := hashJoin(small, big, &met); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["join.build_rows"]; h.Count != 2 || h.Sum != 2*smallN {
		t.Fatalf("build side after both joins: count=%d sum=%d, want 2 builds of %d rows each",
			h.Count, h.Sum, smallN)
	}
	if h := snap.Histograms["join.probe_rows"]; h.Sum != 2*bigN {
		t.Fatalf("probe side sum = %d, want %d", h.Sum, 2*bigN)
	}
}

// Whatever side the index is built on, the output must keep the documented
// a-major row order: a's row order, matches within one a-row in b's order.
func TestHashJoinDeterministicOrder(t *testing.T) {
	a := vertexTable([]string{"k", "a"},
		[]uint32{0, 10}, []uint32{1, 11}, []uint32{0, 12}, []uint32{2, 13}, []uint32{1, 14})
	b := vertexTable([]string{"k", "b"},
		[]uint32{1, 20}, []uint32{0, 21}, []uint32{0, 22})

	expect := func(x, y *store.Table) [][]uint32 {
		var out [][]uint32
		for rx := 0; rx < x.Len(); rx++ {
			for ry := 0; ry < y.Len(); ry++ {
				if x.At(rx, 0) == y.At(ry, 0) {
					out = append(out, []uint32{x.At(rx, 0), x.At(rx, 1), y.At(ry, 1)})
				}
			}
		}
		return out
	}
	for _, tc := range []struct{ a, b *store.Table }{{a, b}, {b, a}} {
		got, err := hashJoin(tc.a, tc.b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := expect(tc.a, tc.b); !reflect.DeepEqual(tableRows(got), want) {
			t.Fatalf("join rows = %v, want a-major %v", tableRows(got), want)
		}
	}
}

// The skewed case the smaller-side fix targets: a large probe table against
// a small build table, in both argument orders.
func BenchmarkHashJoinSkewed(b *testing.B) {
	const bigN, smallN = 20000, 64
	big := vertexTable([]string{"k", "b"})
	for i := 0; i < bigN; i++ {
		big.AppendRow(uint32(i%smallN), uint32(i))
	}
	small := vertexTable([]string{"k", "s"})
	for i := 0; i < smallN; i++ {
		small.AppendRow(uint32(i), uint32(i))
	}
	for _, order := range []struct {
		name string
		a, b *store.Table
	}{{"big_small", big, small}, {"small_big", small, big}} {
		b.Run(order.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hashJoin(order.a, order.b, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Instrumentation must not change results: the same cluster with and
// without a registry returns byte-identical tables on every execution path.
func TestInstrumentationLeavesResultsIdentical(t *testing.T) {
	g := movieGraph()
	queries := []string{
		`SELECT * WHERE { ?f <starring> ?a . ?a <spouse> ?b . ?f <chronology> ?f2 }`, // internal IEQ
		`SELECT * WHERE { ?f <starring> ?a . ?a <birthPlace> ?c . ?c <foundingDate> ?d }`,
		`SELECT * WHERE { ?a <birthPlace> ?c . ?p <residence> ?c . ?p <spouse> ?p2 }`,
		`SELECT * WHERE { <actor1> ?p ?o }`,
		`SELECT ?a WHERE { ?f <starring> ?a }`,
	}
	build := func(reg *obs.Registry) []*Cluster {
		t.Helper()
		p, err := core.MPC{}.Partition(g, partition.Options{K: 2, Epsilon: 0.2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := NewFromPartitioning(p, Config{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		starOnly, err := New(p, nil, Config{Semijoin: true, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		cs := []*Cluster{aware, starOnly}
		l, err := partition.VP{}.Partition(g, partition.Options{K: 3, Epsilon: 0.3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(l, nil, Config{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return append(cs, c)
	}

	plain := build(nil)
	reg := obs.NewRegistry()
	instrumented := build(reg)
	for ci := range plain {
		for _, qs := range queries {
			q := sparql.MustParse(qs)
			rp, err := plain[ci].Execute(q)
			if err != nil {
				t.Fatalf("cluster %d %s: %v", ci, qs, err)
			}
			ri, err := instrumented[ci].Execute(q)
			if err != nil {
				t.Fatalf("instrumented cluster %d %s: %v", ci, qs, err)
			}
			if !reflect.DeepEqual(rp.Table.Vars, ri.Table.Vars) ||
				!reflect.DeepEqual(rp.Table.Kinds, ri.Table.Kinds) ||
				!reflect.DeepEqual(tableRows(rp.Table), tableRows(ri.Table)) {
				t.Fatalf("cluster %d %s: instrumented result differs:\nplain %v %v\ninst  %v %v",
					ci, qs, rp.Table.Vars, tableRows(rp.Table), ri.Table.Vars, tableRows(ri.Table))
			}
		}
	}
	// And the registry actually saw the traffic.
	snap := reg.Snapshot()
	wantQueries := int64(len(plain) * len(queries))
	if got := snap.Counters["query.count"]; got != wantQueries {
		t.Fatalf("query.count = %d, want %d", got, wantQueries)
	}
	for _, name := range []string{"query.total_ns", "query.local_ns", "query.decompose_ns"} {
		if snap.Histograms[name].Count == 0 {
			t.Fatalf("histogram %s never observed", name)
		}
	}
	if snap.Counters["store.match_calls"] == 0 {
		t.Fatal("store matcher recorded no calls")
	}
	if len(snap.Traces) == 0 {
		t.Fatal("no query traces retained")
	}
	// Spot-check one trace's span tree: a query trace must carry decompose
	// and local children with site-eval grandchildren.
	tr := snap.Traces[len(snap.Traces)-1]
	if tr.Root.Find("decompose") == nil || tr.Root.Find("local") == nil {
		t.Fatalf("trace lacks decompose/local spans: %+v", tr.Root)
	}
	found := false
	for _, tr := range snap.Traces {
		if tr.Root.Find("site-eval") != nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no trace recorded a site-eval span")
	}
}
