package transport

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// batchQueries builds a deterministic spread of subqueries over g.
func batchQueries(g *rdf.Graph, n int, seed int64) []*sparql.Query {
	rng := rand.New(rand.NewSource(seed))
	subs := make([]*sparql.Query, n)
	for i := range subs {
		tr := g.Triple(int32(rng.Intn(g.NumTriples())))
		subs[i] = &sparql.Query{Patterns: []sparql.TriplePattern{{
			S: sparql.Term{IsVar: true, Value: "x"},
			P: sparql.Term{Value: g.Properties.String(uint32(tr.P))},
			O: sparql.Term{IsVar: i%2 == 0, Value: g.Vertices.String(uint32(tr.O))},
		}}}
	}
	return subs
}

func TestQueryBatchCodecRoundtrip(t *testing.T) {
	g := testGraph(t)
	subs := batchQueries(g, 5, 3)
	payload := AppendQueryBatch(nil, subs)
	got, err := DecodeQueryBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(subs, got) {
		t.Fatal("batch roundtrip changed the queries")
	}
	// Every truncation must error, never panic.
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeQueryBatch(payload[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	if _, err := DecodeQueryBatch(append(payload, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestTableBatchCodecRoundtrip(t *testing.T) {
	g := testGraph(t)
	st := store.New(g, allTriples(g))
	var tabs []*store.Table
	for _, q := range batchQueries(g, 4, 5) {
		tab, err := st.Match(q)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
	}
	payload := AppendTableBatch(nil, tabs)
	got, err := DecodeTableBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tabs) {
		t.Fatalf("decoded %d tables, want %d", len(got), len(tabs))
	}
	for i := range tabs {
		if !reflect.DeepEqual(tabs[i].Vars, got[i].Vars) || !reflect.DeepEqual(tabs[i].Data, got[i].Data) {
			t.Fatalf("table %d changed in roundtrip", i)
		}
	}
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeTableBatch(payload[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
}

// TestTableBatchOfOneAllocatesLikeOneTable pins the buffer sizing that lets
// a batch of one stand in for a single-table response: however large the
// table, encoding the batch allocates no more than encoding the bare table
// into an exactly pre-sized buffer does — the payload, once.
func TestTableBatchOfOneAllocatesLikeOneTable(t *testing.T) {
	tab := store.NewTable([]string{"x", "y"}, []store.VarKind{store.KindVertex, store.KindVertex})
	tab.Data = make([]uint32, 2<<16)
	// AllocsPerRun counts process-wide mallocs; the minimum over a few
	// tries filters out goroutines other tests left winding down.
	minAllocs := func(f func()) float64 {
		best := math.Inf(1)
		for i := 0; i < 5; i++ {
			best = min(best, testing.AllocsPerRun(5, f))
		}
		return best
	}
	var payload []byte
	bare := minAllocs(func() {
		payload = store.AppendTable(make([]byte, 0, store.EncodedTableSize(tab)), tab)
	})
	batch := minAllocs(func() {
		payload = AppendTableBatch(nil, []*store.Table{tab})
	})
	if batch > bare {
		t.Fatalf("encoding a batch of one %d-value table took %.0f allocations, the bare table %.0f", len(tab.Data), batch, bare)
	}
	if got, err := DecodeTableBatch(payload); err != nil || len(got) != 1 || got[0].Len() != tab.Len() {
		t.Fatalf("roundtrip: %v", err)
	}
}

// TestExecuteSubBatchMatchesSingles checks that one batched round trip
// returns exactly the tables that per-subquery calls return, in order.
func TestExecuteSubBatchMatchesSingles(t *testing.T) {
	g := testGraph(t)
	_, addr := startServer(t, store.New(g, allTriples(g)))
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	subs := batchQueries(g, 6, 17)
	tabs, st, err := c.ExecuteSubBatch(context.Background(), subs, cluster.SubOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesShipped <= 0 || st.WireTime <= 0 {
		t.Fatalf("missing wire stats: %+v", st)
	}
	if len(tabs) != len(subs) {
		t.Fatalf("%d tables for %d subqueries", len(tabs), len(subs))
	}
	for i, q := range subs {
		want, _, err := c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Vars, tabs[i].Vars) || !reflect.DeepEqual(want.Data, tabs[i].Data) ||
			want.ZeroWidthRows != tabs[i].ZeroWidthRows {
			t.Fatalf("batched table %d differs from single-call answer", i)
		}
	}
}

// TestMappedSnapshotServing covers the full store-only site path: a v3
// block snapshot served over the wire answers queries and updates
// bit-identically to a heap-backed flat store, including after a live
// update batch (the mapped site's graph is dictionary-only, so the delta
// is what teaches it the batch's new terms).
func TestMappedSnapshotServing(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "site0.mpcg")
	if err := store.SaveBlockSnapshot(path, g, allTriples(g)); err != nil {
		t.Fatal(err)
	}
	mapped, err := store.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	flat := store.New(g, allTriples(g))

	_, addr := startServer(t, mapped)
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	check := func(stage string) {
		t.Helper()
		for i, q := range batchQueries(g, 8, 23) {
			want, err := flat.Match(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
			if err != nil {
				t.Fatalf("%s query %d: %v", stage, i, err)
			}
			if !reflect.DeepEqual(want.Vars, got.Vars) || !reflect.DeepEqual(want.Data, got.Data) {
				t.Fatalf("%s query %d: mapped site differs from flat store", stage, i)
			}
		}
	}
	check("pre-update")

	// A live batch over the mapped base: inserts with new terms, a delete
	// of a base triple.
	victim := uniqueTriple(t, g)
	ops := []rdf.Op{
		{Insert: true, S: "<urn:blk:a>", P: "<urn:blk:p>", O: "<urn:blk:b>"},
		{Insert: true, S: "<urn:blk:b>", P: "<urn:blk:p>", O: "<urn:blk:c>"},
		{Insert: false, S: g.Vertices.String(uint32(victim.S)), P: g.Properties.String(uint32(victim.P)), O: g.Vertices.String(uint32(victim.O))},
	}
	resolved, delta, notFound := g.ResolveUpdates(ops)
	if notFound != 0 {
		t.Fatalf("resolution dropped %d ops", notFound)
	}
	res, err := c.ApplyUpdate(context.Background(), cluster.UpdateBatch{Seq: 1, Delta: delta, Ops: resolved})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Inserted != 2 || res.Stats.Deleted != 1 {
		t.Fatalf("mapped site stats %+v, want 2 inserts / 1 delete", res.Stats)
	}
	if st := flat.ApplyResolved(resolved); st.Inserted != 2 || st.Deleted != 1 {
		t.Fatalf("flat store stats %+v, want 2 inserts / 1 delete", st)
	}
	check("post-update")

	// The new property must be queryable over the wire by name.
	q := &sparql.Query{Patterns: []sparql.TriplePattern{{
		S: sparql.Term{IsVar: true, Value: "x"},
		P: sparql.Term{Value: "<urn:blk:p>"},
		O: sparql.Term{IsVar: true, Value: "y"},
	}}}
	tab, _, err := c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("new-property query: %d rows, want 2", tab.Len())
	}
}
