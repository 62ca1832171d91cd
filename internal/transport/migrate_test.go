package transport

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

func TestMigrateCodecRoundtrip(t *testing.T) {
	batches := []cluster.MigrateBatch{
		{Seq: 1}, // empty shipment (phase with nothing for this site)
		{
			Seq: 9,
			Ops: []rdf.ResolvedUpdate{
				{Insert: true, T: rdf.Triple{S: 5, P: 2, O: 7}},
				{Insert: true, T: rdf.Triple{S: 0, P: 0, O: 0}},
				{Insert: false, T: rdf.Triple{S: 1 << 20, P: 300, O: 1 << 19}},
			},
		},
	}
	for _, want := range batches {
		buf := AppendMigrateBatch(nil, want)
		got, err := DecodeMigrateBatch(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(want.Ops) == 0 {
			want.Ops = got.Ops
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("roundtrip mismatch:\nwant %+v\ngot  %+v", want, got)
		}
	}
}

func TestMigrateCodecTruncatedAndMalformed(t *testing.T) {
	full := AppendMigrateBatch(nil, cluster.MigrateBatch{
		Seq: 3,
		Ops: []rdf.ResolvedUpdate{{Insert: true, T: rdf.Triple{S: 1, P: 2, O: 3}}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeMigrateBatch(full[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(full))
		}
	}
	if _, err := DecodeMigrateBatch(append(append([]byte{}, full...), 0xff)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// An op flag other than 0/1 is malformed, not a future extension.
	bad := append([]byte{}, full...)
	bad[len(full)-4] = 2 // the single op's flag byte precedes its three IDs
	if _, err := DecodeMigrateBatch(bad); err == nil {
		t.Fatal("op flag 2 decoded without error")
	}
}

// absentTriple finds a triple value made of interned IDs that is not in g —
// a valid migration shipment (all terms exist) that changes the store.
func absentTriple(t *testing.T, g *rdf.Graph) rdf.Triple {
	t.Helper()
	live := g.LiveTriples()
	for _, i := range live {
		for _, j := range live {
			cand := rdf.Triple{S: g.Triple(i).S, P: g.Triple(i).P, O: g.Triple(j).O}
			if _, ok := g.FindTriple(cand.S, cand.P, cand.O); !ok {
				return cand
			}
		}
	}
	t.Fatal("no absent triple value over interned IDs")
	return rdf.Triple{}
}

// TestMigrateEndToEndIdempotent ships migration batches to a server: inserts land in the store, deletes remove them, replays return
// the recorded result without reapplying, stale sequence numbers are
// refused, and the migration sequence space is independent of the update
// sequence space.
func TestMigrateEndToEndIdempotent(t *testing.T) {
	ctx := context.Background()
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
		tab, _, err := c.ExecuteSub(ctx, scan, cluster.SubOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return tab.Len()
	}
	base := count()

	// An update batch first: its sequence space must not collide with the
	// migration one (both start at 1).
	if _, err := c.ApplyUpdate(ctx, cluster.UpdateBatch{Seq: 1}); err != nil {
		t.Fatal(err)
	}

	tr := absentTriple(t, g)
	add := cluster.MigrateBatch{Seq: 1, Ops: []rdf.ResolvedUpdate{{Insert: true, T: tr}}}
	first, err := c.ApplyMigrate(ctx, add)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Inserted != 1 {
		t.Fatalf("migrate insert stats %+v, want Inserted 1", first.Stats)
	}
	if got := count(); got != base+1 {
		t.Fatalf("post-migrate scan: %d rows, want %d", got, base+1)
	}

	// Replay: recorded result, no double-insert (the scan dedups replicas,
	// so a double-applied insert would be invisible there — the returned
	// stats and the idempotency contract are what we pin).
	replay, err := c.ApplyMigrate(ctx, add)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replay != first {
		t.Fatalf("replay result %+v differs from first %+v", replay, first)
	}

	rm := cluster.MigrateBatch{Seq: 2, Ops: []rdf.ResolvedUpdate{{Insert: false, T: tr}}}
	res, err := c.ApplyMigrate(ctx, rm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Deleted != 1 {
		t.Fatalf("migrate delete stats %+v, want Deleted 1", res.Stats)
	}
	if got := count(); got != base {
		t.Fatalf("post-cleanup scan: %d rows, want %d", got, base)
	}

	// Seq 1 is now genuinely stale.
	_, err = c.ApplyMigrate(ctx, add)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeBadRequest {
		t.Fatalf("stale migrate batch: got %v, want RemoteError{CodeBadRequest}", err)
	}
}
