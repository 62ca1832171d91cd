package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mpc/internal/datagen"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

// randomOps draws one randomized update batch against the live graph:
// inserts reusing existing terms, inserts interning brand-new terms,
// deletes of live triples (by value), re-inserts of previously deleted
// values, and deletes that match nothing.
func randomOps(rng *rand.Rand, g *rdf.Graph, n int, fresh *int) []rdf.Op {
	live := g.LiveTriples()
	vname := func(id rdf.VertexID) string { return g.Vertices.String(uint32(id)) }
	pname := func(id rdf.PropertyID) string { return g.Properties.String(uint32(id)) }
	randV := func() string { return vname(rdf.VertexID(rng.Intn(g.NumVertices()))) }
	randP := func() string { return pname(rdf.PropertyID(rng.Intn(g.NumProperties()))) }

	ops := make([]rdf.Op, 0, n)
	for len(ops) < n {
		switch rng.Intn(6) {
		case 0: // insert between existing vertices over an existing property
			ops = append(ops, rdf.Op{Insert: true, S: randV(), P: randP(), O: randV()})
		case 1: // insert with brand-new terms (grows both dictionaries)
			*fresh++
			ops = append(ops, rdf.Op{Insert: true,
				S: fmt.Sprintf("u:v%d", *fresh), P: fmt.Sprintf("u:p%d", *fresh%5), O: randV()})
		case 2, 3: // delete a live triple by value
			if len(live) == 0 {
				continue
			}
			tr := g.Triple(live[rng.Intn(len(live))])
			ops = append(ops, rdf.Op{S: vname(tr.S), P: pname(tr.P), O: vname(tr.O)})
		case 4: // delete something that matches nothing
			ops = append(ops, rdf.Op{S: randV(), P: randP(), O: "u:nosuch"})
		case 5: // delete-then-reinsert the same value within one batch
			if len(live) == 0 {
				continue
			}
			tr := g.Triple(live[rng.Intn(len(live))])
			s, p, o := vname(tr.S), pname(tr.P), vname(tr.O)
			ops = append(ops, rdf.Op{S: s, P: p, O: o}, rdf.Op{Insert: true, S: s, P: p, O: o})
		}
	}
	return ops
}

// TestDifferentialUpdateStream is the live-update tentpole's acceptance
// test: a randomized insert/delete stream commits batch by batch to every
// strategy × partitioner combination (loopback TCP included), and after
// every batch each combination must still return exactly the naive
// evaluator's answer on the mutated graph — the same bit-identical
// guarantee the static corpus pins, now under mutation.
//
// Randomized live migrations (Env.Migrate: snapshot → MPC recompute →
// PlanMigration diff → per-cluster ship and cutover) land mid-stream, and
// one per stream deliberately races an update batch from a separate
// goroutine. Queries after any of those must still match the oracle
// bit-for-bit — the acceptance criterion for migration transparency.
// Every batch and migration also runs beside readers on every combination
// (Env.CheckConcurrent): each concurrent answer must equal the oracle at
// the state before the commit or at the state after it.
func TestDifferentialUpdateStream(t *testing.T) {
	type streamConfig struct {
		graph   int // index into graphConfigs
		batches int
		tcp     bool
	}
	streams := []streamConfig{
		{graph: 0, batches: 20, tcp: true},
		{graph: 3, batches: 20, tcp: false},
		{graph: 7, batches: 15, tcp: false},
	}
	queriesPerBatch := 3
	if testing.Short() {
		streams = []streamConfig{{graph: 0, batches: 6, tcp: true}, {graph: 3, batches: 6, tcp: false}}
		queriesPerBatch = 2
	}

	totalBatches, checked, skipped, concurrentReads := 0, 0, 0, 0
	migrations, movedTotal := 0, 0
	var totalStats rdf.ApplyStats
	for si, sc := range streams {
		gc := graphConfigs[sc.graph]
		g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, int64(100+sc.graph))
		env, err := NewEnv(g, Options{TCP: sc.tcp, Broadcast: true, Block: true})
		if err != nil {
			t.Fatalf("stream %d: %v", si, err)
		}
		rng := rand.New(rand.NewSource(int64(7000 + si)))
		// Concurrent-read queries draw from their own stream, so the batches
		// and checked queries stay the same with or without them.
		crng := rand.New(rand.NewSource(int64(7500 + si)))
		// concurrently runs op — a batch, a migration, or both racing —
		// while every combination re-reads one random query, and checks
		// each read against the oracle before and after op.
		concurrently := func(bi int, op func() error) {
			cq := sparql.RandomBGP(crng, queryOptions(3))
			res, reads, err := env.CheckConcurrent(cq, op)
			if err != nil {
				t.Fatalf("stream %d batch %d: %v", si, bi, err)
			}
			concurrentReads += reads
			for _, d := range res.Divergences {
				t.Errorf("stream %d batch %d concurrent query:\n%s\n%s", si, bi, cq, d)
			}
		}
		fresh := 0
		for bi := 0; bi < sc.batches; bi++ {
			ops := randomOps(rng, g, 2+rng.Intn(6), &fresh)
			if bi == sc.batches/2 {
				// Race one migration against this update batch from separate
				// goroutines. Env serializes them internally (the same
				// serialization the coordinator's commit lock provides), and
				// either interleaving must leave every combination
				// bit-identical to the oracle.
				var wg sync.WaitGroup
				var stats rdf.ApplyStats
				var moved int
				var bErr, mErr error
				concurrently(bi, func() error {
					wg.Add(2)
					go func() {
						defer wg.Done()
						stats, bErr = env.ApplyBatch(context.Background(), ops)
					}()
					go func() {
						defer wg.Done()
						moved, mErr = env.Migrate(context.Background(), int64(9000+100*si+bi))
					}()
					wg.Wait()
					return nil
				})
				if bErr != nil {
					t.Fatalf("stream %d batch %d (racing migration): %v", si, bi, bErr)
				}
				if mErr != nil {
					t.Fatalf("stream %d migration racing batch %d: %v", si, bi, mErr)
				}
				totalStats.Add(stats)
				migrations++
				movedTotal += moved
			} else {
				var stats rdf.ApplyStats
				concurrently(bi, func() (err error) {
					stats, err = env.ApplyBatch(context.Background(), ops)
					return err
				})
				totalStats.Add(stats)
				if rng.Intn(5) == 0 {
					var moved int
					concurrently(bi, func() (err error) {
						moved, err = env.Migrate(context.Background(), int64(8000+100*si+bi))
						return err
					})
					migrations++
					movedTotal += moved
				}
			}
			totalBatches++

			for qi := 0; qi < queriesPerBatch; qi++ {
				o := queryOptions(3)
				o.Disconnected = qi%3 == 1
				q := sparql.RandomBGP(rng, o)
				res, err := env.Check(q)
				if err != nil {
					t.Fatalf("stream %d batch %d query %d:\n%s\n%v", si, bi, qi, q, err)
				}
				if res.Skipped {
					skipped++
					continue
				}
				checked++
				for _, d := range res.Divergences {
					t.Errorf("stream %d batch %d query %d (%d oracle rows):\n%s\n%s",
						si, bi, qi, res.OracleRows, q, d)
				}
			}
		}
		env.Close()
	}
	t.Logf("committed %d batches (%d inserted, %d deleted, %d not-found), %d migrations (%d vertices moved), checked %d cases, skipped %d, %d reads concurrent with a commit",
		totalBatches, totalStats.Inserted, totalStats.Deleted, totalStats.NotFound, migrations, movedTotal, checked, skipped, concurrentReads)
	if migrations < len(streams) {
		t.Fatalf("only %d migrations across %d streams; each stream must migrate at least once", migrations, len(streams))
	}
	if !testing.Short() {
		if totalBatches < 50 {
			t.Fatalf("only %d batches; the stream must commit at least 50", totalBatches)
		}
		if totalStats.Inserted == 0 || totalStats.Deleted == 0 || totalStats.NotFound == 0 {
			t.Fatalf("degenerate stream: stats %+v must exercise inserts, deletes, and misses", totalStats)
		}
		if movedTotal == 0 {
			t.Fatal("degenerate migrations: no vertex ever moved partitions")
		}
	}
	if checked == 0 {
		t.Fatal("no cases checked at all")
	}
}

// TestUpdateStreamQueriesNewTerms pins the end-to-end visibility of terms
// that only exist post-freeze: a query naming an inserted property and
// vertex must answer identically everywhere, and after deleting the last
// triple of that property the answer must be empty everywhere.
func TestUpdateStreamQueriesNewTerms(t *testing.T) {
	gc := graphConfigs[1]
	g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, 101)
	env, err := NewEnv(g, Options{TCP: true, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	if _, err := env.ApplyBatch(context.Background(), []rdf.Op{
		{Insert: true, S: "u:s", P: "u:p", O: "u:o"},
		{Insert: true, S: "u:o", P: "u:p", O: "v0"},
	}); err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT * WHERE { ?a <u:p> ?b }`)
	res, err := env.Check(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped || res.OracleRows != 2 {
		t.Fatalf("new-property query: skipped=%v rows=%d, want 2", res.Skipped, res.OracleRows)
	}
	for _, d := range res.Divergences {
		t.Error(d)
	}

	if _, err := env.ApplyBatch(context.Background(), []rdf.Op{
		{S: "u:s", P: "u:p", O: "u:o"},
		{S: "u:o", P: "u:p", O: "v0"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = env.Check(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped || res.OracleRows != 0 {
		t.Fatalf("emptied-property query: skipped=%v rows=%d, want 0", res.Skipped, res.OracleRows)
	}
	for _, d := range res.Divergences {
		t.Error(d)
	}
}
