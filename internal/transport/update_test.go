package transport

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/workload"
)

func TestUpdateCodecRoundtrip(t *testing.T) {
	batches := []cluster.UpdateBatch{
		{Seq: 1}, // empty batch, empty delta
		{
			Seq: 7,
			Delta: rdf.DictDelta{
				BaseVertices:   100,
				NewVertices:    []string{"<http://x/v1>", "<http://x/v2>"},
				BaseProperties: 9,
				NewProperties:  []string{"<http://x/p>"},
			},
			Ops: []rdf.ResolvedUpdate{
				{Insert: true, T: rdf.Triple{S: 100, P: 9, O: 101}},
				{Insert: true, T: rdf.Triple{S: 101, P: 9, O: 100}},
				{Insert: false, T: rdf.Triple{S: 3, P: 0, O: 5}},
				{Insert: false, T: rdf.Triple{S: 0, P: 0, O: 0}},
			},
		},
	}
	for _, want := range batches {
		buf := AppendUpdateBatch(nil, want)
		got, err := DecodeUpdateBatch(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// Normalize nil-vs-empty before comparing.
		if len(want.Ops) == 0 {
			want.Ops = got.Ops
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("roundtrip mismatch:\nwant %+v\ngot  %+v", want, got)
		}
	}

	res := cluster.SiteUpdateResult{Stats: rdf.ApplyStats{Inserted: 3, Deleted: 2, NotFound: 1}}
	gotRes, err := DecodeUpdateResult(AppendUpdateResult(nil, res))
	if err != nil {
		t.Fatal(err)
	}
	if gotRes != res {
		t.Fatalf("result roundtrip: want %+v got %+v", res, gotRes)
	}
}

func TestUpdateCodecTruncated(t *testing.T) {
	full := AppendUpdateBatch(nil, cluster.UpdateBatch{
		Seq:   3,
		Delta: rdf.DictDelta{NewVertices: []string{"<v>"}},
		Ops:   []rdf.ResolvedUpdate{{Insert: true, T: rdf.Triple{S: 1, P: 2, O: 3}}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeUpdateBatch(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(full))
		}
	}
	// Trailing garbage must be rejected, not silently ignored.
	if _, err := DecodeUpdateBatch(append(append([]byte{}, full...), 0xff)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// uniqueTriple returns a live triple whose (S,P,O) value occurs exactly
// once in g.
func uniqueTriple(t *testing.T, g *rdf.Graph) rdf.Triple {
	t.Helper()
	counts := make(map[rdf.Triple]int)
	for _, i := range g.LiveTriples() {
		counts[g.Triple(i)]++
	}
	for _, i := range g.LiveTriples() {
		if tr := g.Triple(i); counts[tr] == 1 {
			return tr
		}
	}
	t.Fatal("no unique triple in graph")
	return rdf.Triple{}
}

// applyLocally mimics the coordinator's half of a write: resolve ops
// against g, mutate g, and return the wire batch the single test server —
// which stores the whole graph — would receive.
func applyLocally(t *testing.T, g *rdf.Graph, seq uint64, ops []rdf.Op) (cluster.UpdateBatch, rdf.ApplyStats) {
	t.Helper()
	resolved, delta, notFound := g.ResolveUpdates(ops)
	trace, stats := g.ApplyResolvedTrace(resolved)
	stats.NotFound += notFound
	batch := cluster.UpdateBatch{Seq: seq, Delta: delta, Ops: make([]rdf.ResolvedUpdate, len(trace))}
	for i, op := range trace {
		batch.Ops[i] = rdf.ResolvedUpdate{Insert: op.Insert, T: op.T}
	}
	return batch, stats
}

// TestUpdateEndToEnd ships insert and delete batches to a server and checks the remote answers track a local store applying the
// same mutations.
func TestUpdateEndToEnd(t *testing.T) {
	g := testGraph(t)
	_, addr := startServer(t, store.New(g, allTriples(g)))
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	scan := &sparql.Query{Patterns: []sparql.TriplePattern{{
		S: sparql.Term{IsVar: true, Value: "s"},
		P: sparql.Term{IsVar: true, Value: "p"},
		O: sparql.Term{IsVar: true, Value: "o"},
	}}}
	count := func() int {
		t.Helper()
		tab, _, err := c.ExecuteSub(context.Background(), scan, cluster.SubOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return tab.Len()
	}
	base := count()
	if base == 0 {
		t.Fatal("pre-update scan returned no rows")
	}

	// Batch 1: two inserts with brand-new terms, one delete of a live
	// triple, one delete that matches nothing. The victim must be unique
	// as a value (the generator emits duplicate triples, and the scan
	// dedupes), or the delete would not change the row count.
	victim := uniqueTriple(t, g)
	ops := []rdf.Op{
		{Insert: true, S: "<urn:new:a>", P: "<urn:new:p>", O: "<urn:new:b>"},
		{Insert: true, S: "<urn:new:b>", P: "<urn:new:p>", O: "<urn:new:a>"},
		{Insert: false, S: g.Vertices.String(uint32(victim.S)), P: g.Properties.String(uint32(victim.P)), O: g.Vertices.String(uint32(victim.O))},
		{Insert: false, S: "<urn:new:ghost>", P: "<urn:new:p>", O: "<urn:new:ghost>"},
	}
	batch, wantStats := applyLocally(t, g, 1, ops)
	res, err := c.ApplyUpdate(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	// The wire batch only carries trace ops (the ghost delete never made
	// the trace), so the site reports inserted/deleted but not NotFound.
	if res.Stats.Inserted != wantStats.Inserted || res.Stats.Deleted != wantStats.Deleted {
		t.Fatalf("site stats %+v, coordinator stats %+v", res.Stats, wantStats)
	}
	if wantStats.NotFound != 1 {
		t.Fatalf("coordinator NotFound = %d, want 1", wantStats.NotFound)
	}
	if got, want := count(), base+2-1; got != want {
		t.Fatalf("post-batch scan: %d rows, want %d", got, want)
	}

	// The new property must be queryable remotely by name.
	q := &sparql.Query{Patterns: []sparql.TriplePattern{{
		S: sparql.Term{IsVar: true, Value: "x"},
		P: sparql.Term{Value: "<urn:new:p>"},
		O: sparql.Term{IsVar: true, Value: "y"},
	}}}
	tab, _, err := c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("new-property query: %d rows, want 2", tab.Len())
	}

	// Batch 2: delete one of the fresh inserts again — exercises deleting
	// a triple that lives only in the store's post-load state.
	batch2, _ := applyLocally(t, g, 2, []rdf.Op{
		{Insert: false, S: "<urn:new:a>", P: "<urn:new:p>", O: "<urn:new:b>"},
	})
	if _, err := c.ApplyUpdate(context.Background(), batch2); err != nil {
		t.Fatal(err)
	}
	if got, want := count(), base; got != want {
		t.Fatalf("post-batch-2 scan: %d rows, want %d", got, want)
	}
}

// TestUpdateSeqIdempotent re-delivers a committed batch (the retry case)
// and checks the server returns the recorded result without reapplying,
// while genuinely stale sequence numbers are refused.
func TestUpdateSeqIdempotent(t *testing.T) {
	g := testGraph(t)
	_, addr := startServer(t, store.New(g, allTriples(g)))
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch, _ := applyLocally(t, g, 1, []rdf.Op{
		{Insert: true, S: "<urn:i:a>", P: "<urn:i:p>", O: "<urn:i:b>"},
	})
	first, err := c.ApplyUpdate(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}

	// Replay of the same batch: identical result, no double-insert.
	replay, err := c.ApplyUpdate(context.Background(), batch)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replay != first {
		t.Fatalf("replay result %+v differs from first %+v", replay, first)
	}
	q := &sparql.Query{Patterns: []sparql.TriplePattern{{
		S: sparql.Term{IsVar: true, Value: "x"},
		P: sparql.Term{Value: "<urn:i:p>"},
		O: sparql.Term{IsVar: true, Value: "y"},
	}}}
	tab, _, err := c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("after replay: %d rows for the inserted triple, want 1 (double-applied?)", tab.Len())
	}

	// Move to seq 2, then replay seq 1: now genuinely stale, refused.
	batch2, _ := applyLocally(t, g, 2, []rdf.Op{
		{Insert: true, S: "<urn:i:b>", P: "<urn:i:p>", O: "<urn:i:c>"},
	})
	if _, err := c.ApplyUpdate(context.Background(), batch2); err != nil {
		t.Fatal(err)
	}
	_, err = c.ApplyUpdate(context.Background(), batch)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeBadRequest {
		t.Fatalf("stale batch: got %v, want RemoteError{CodeBadRequest}", err)
	}
}

// mustPartition builds a k-site subject-hash layout.
func mustPartition(t *testing.T, g *rdf.Graph, k int) *partition.Partitioning {
	t.Helper()
	p, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: k, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoopbackUpdateBitIdentical commits the same mutation stream to an
// in-process cluster and a loopback-TCP cluster sharing one graph (via
// ApplyShared, the differential oracle's path) and checks every query
// stays bit-identical afterwards.
func TestLoopbackUpdateBitIdentical(t *testing.T) {
	g := testGraph(t)
	// Two layout objects over the same graph: same seed, so identical
	// placement, but independently mutable by each cluster.
	local, err := cluster.New(mustPartition(t, g, 3), nil,
		cluster.Config{Semijoin: true})
	if err != nil {
		t.Fatal(err)
	}
	remote := remoteCluster(t, mustPartition(t, g, 3), nil,
		cluster.Config{Semijoin: true})

	queries := workload.LUBMQueries(g, 1)

	commit := func(ops []rdf.Op) {
		t.Helper()
		resolved, delta, _ := g.ResolveUpdates(ops)
		trace, _ := g.ApplyResolvedTrace(resolved)
		if err := local.ApplyShared(context.Background(), delta, trace); err != nil {
			t.Fatal(err)
		}
		if err := remote.ApplyShared(context.Background(), delta, trace); err != nil {
			t.Fatal(err)
		}
	}

	check := func(tag string) {
		t.Helper()
		for _, q := range queries {
			lr, err := local.Execute(q.Query)
			if err != nil {
				t.Fatalf("%s/%s local: %v", tag, q.Name, err)
			}
			rr, err := remote.Execute(q.Query)
			if err != nil {
				t.Fatalf("%s/%s remote: %v", tag, q.Name, err)
			}
			if !reflect.DeepEqual(lr.Table.Vars, rr.Table.Vars) ||
				!reflect.DeepEqual(lr.Table.Data, rr.Table.Data) ||
				lr.Table.ZeroWidthRows != rr.Table.ZeroWidthRows {
				t.Fatalf("%s/%s: remote table differs from local after update", tag, q.Name)
			}
		}
	}

	check("pre")
	// Delete a spread of live triples and add fresh ones touching new and
	// old vertices.
	var ops []rdf.Op
	for i := int32(0); i < 40; i++ {
		tr := g.Triple(i * 37)
		ops = append(ops, rdf.Op{
			S: g.Vertices.String(uint32(tr.S)),
			P: g.Properties.String(uint32(tr.P)),
			O: g.Vertices.String(uint32(tr.O)),
		})
	}
	for i := 0; i < 20; i++ {
		ops = append(ops, rdf.Op{Insert: true,
			S: "<urn:u:" + string(rune('a'+i)) + ">",
			P: "<urn:u:p>",
			O: g.Vertices.String(uint32(g.Triple(int32(i)).S)),
		})
	}
	commit(ops)
	check("post-batch-1")

	// Re-insert a deleted triple and delete one of the new inserts.
	tr := g.Triple(0 * 37)
	commit([]rdf.Op{
		{Insert: true, S: g.Vertices.String(uint32(tr.S)), P: g.Properties.String(uint32(tr.P)), O: g.Vertices.String(uint32(tr.O))},
		{Insert: false, S: "<urn:u:a>", P: "<urn:u:p>", O: g.Vertices.String(uint32(g.Triple(0).S))},
	})
	check("post-batch-2")
}
