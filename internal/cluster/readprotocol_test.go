package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpc/internal/core"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// hookSite is an in-process site whose batched query calls first run hook,
// so a test can park a read inside a site call, or commit a write while one
// runs. Update and migration batches pass straight through.
type hookSite struct {
	localSite
	hook func()
}

func (s hookSite) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts SubOpts) ([]*store.Table, SubStats, error) {
	s.hook()
	return s.localSite.ExecuteSubBatch(ctx, subs, opts)
}

// hookedCluster builds a crossing-aware cluster over movieGraph's MPC
// layout whose site 0 runs hook before every batched query call; the
// returned registry counts cluster.read_retries.
func hookedCluster(t *testing.T, hook func()) (*Cluster, *partition.Partitioning, *obs.Registry) {
	t.Helper()
	g := movieGraph()
	p, err := core.MPC{}.Partition(g, partition.Options{K: 2, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]Site, p.NumSites())
	for i := range sites {
		ls := localSite{store.New(g, p.SiteTriples(i))}
		sites[i] = ls
		if i == 0 {
			sites[i] = hookSite{ls, hook}
		}
	}
	crossing := p.CrossingTest()
	reg := obs.NewRegistry()
	c, err := NewWithSites(p, crossing, Config{Obs: reg}, sites)
	if err != nil {
		t.Fatal(err)
	}
	return c, p, reg
}

// readProtocolQueries are a plain BGP, an OPTIONAL and a property path,
// each of which reaches site 0; inserting "filmN starring actorN" adds
// one row to each.
var readProtocolQueries = []string{
	`SELECT * WHERE { ?f <starring> ?a }`,
	`SELECT * WHERE { ?f <starring> ?a OPTIONAL { ?a <spouse> ?s } }`,
	`SELECT * WHERE { ?f <starring>+ ?a }`,
}

func insertFilm(n int) []rdf.Op {
	return []rdf.Op{{Insert: true, S: fmt.Sprintf("film%d", 100+n), P: "starring", O: fmt.Sprintf("actor%d", 100+n)}}
}

// TestReadProtocolApplyDuringParkedCall parks a read inside a site call
// and commits a write meanwhile: Apply must complete while the call is
// parked (no site call holds stateMu), and the read, once released, must
// see the commit and answer from the after-state.
func TestReadProtocolApplyDuringParkedCall(t *testing.T) {
	for _, qs := range readProtocolQueries {
		t.Run(qs, func(t *testing.T) {
			parked := make(chan struct{})
			release := make(chan struct{})
			var first atomic.Bool
			c, _, reg := hookedCluster(t, func() {
				if first.CompareAndSwap(false, true) {
					close(parked)
					<-release
				}
			})
			q := sparql.MustParse(qs)
			first.Store(true) // the baseline read must not park
			before, err := c.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			first.Store(false)

			done := make(chan *Result, 1)
			go func() {
				res, err := c.Execute(q)
				if err != nil {
					t.Error(err)
				}
				done <- res
			}()
			<-parked
			applied := make(chan error, 1)
			go func() {
				_, err := c.Apply(context.Background(), insertFilm(1))
				applied <- err
			}()
			select {
			case err := <-applied:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				close(release)
				t.Fatal("Apply blocked behind a read parked in a site call")
			}
			close(release)
			res := <-done
			if res == nil {
				t.FailNow()
			}
			if got, want := res.Table.Len(), before.Table.Len()+1; got != want {
				t.Fatalf("read across a commit returned %d rows, want the after-state's %d", got, want)
			}
			if n := reg.Counter("cluster.read_retries").Value(); n != 1 {
				t.Fatalf("cluster.read_retries = %d, want 1", n)
			}
		})
	}
}

// TestReadProtocolPinnedLastAttempt makes a read lose every optimistic
// attempt: each of its first readAttempts-1 site calls commits a write
// before returning. The last attempt must keep stateMu through its call
// — a write started during it waits — and the read completes with the
// state it pinned.
func TestReadProtocolPinnedLastAttempt(t *testing.T) {
	var c *Cluster
	var calls atomic.Int32
	lastApplied := make(chan error, 1)
	var lastDone atomic.Bool
	c, _, reg := hookedCluster(t, func() {
		n := int(calls.Add(1))
		switch {
		case n < readAttempts:
			applied := make(chan error, 1)
			go func() {
				_, err := c.Apply(context.Background(), insertFilm(n))
				applied <- err
			}()
			select {
			case err := <-applied:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("attempt %d held stateMu through its site call", n)
			}
		case n == readAttempts:
			go func() {
				_, err := c.Apply(context.Background(), insertFilm(n))
				lastDone.Store(true)
				lastApplied <- err
			}()
			time.Sleep(20 * time.Millisecond)
			if lastDone.Load() {
				t.Error("a write committed during the pinned attempt's site call")
			}
		}
	})
	q := sparql.MustParse(readProtocolQueries[0])
	calls.Store(readAttempts) // the baseline read triggers nothing
	before, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)

	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Table.Len(), before.Table.Len()+readAttempts-1; got != want {
		t.Fatalf("pinned read returned %d rows, want %d (the state after %d commits)", got, want, readAttempts-1)
	}
	if n := reg.Counter("cluster.read_retries").Value(); n != readAttempts-1 {
		t.Fatalf("cluster.read_retries = %d, want %d", n, readAttempts-1)
	}
	if err := <-lastApplied; err != nil {
		t.Fatal(err)
	}
	after, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Table.Len(), before.Table.Len()+readAttempts; got != want {
		t.Fatalf("after the waiting write: %d rows, want %d", got, want)
	}
}

// TestReadProtocolMigrationDuringParkedCall runs a whole live migration —
// ship, cutover, cleanup — while a read is parked inside a site call. The
// cutover must not wait for the read, and the read must rerun under the
// new layout and return the same bindings.
func TestReadProtocolMigrationDuringParkedCall(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	c, p, reg := hookedCluster(t, func() {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	})
	q := sparql.MustParse(readProtocolQueries[0])
	first.Store(true)
	before, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	first.Store(false)

	var wg sync.WaitGroup
	wg.Add(1)
	var res *Result
	go func() {
		defer wg.Done()
		var err error
		if res, err = c.Execute(q); err != nil {
			t.Error(err)
		}
	}()
	<-parked
	// Swap the two partitions: every vertex moves, balance is unchanged.
	swapped := make([]int32, len(p.Assign))
	for v, part := range p.Assign {
		swapped[v] = 1 - part
	}
	migrated := make(chan error, 1)
	go func() {
		_, err := c.ApplyMigration(context.Background(), swapped, nil)
		migrated <- err
	}()
	select {
	case err := <-migrated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("migration cutover blocked behind a read parked in a site call")
	}
	close(release)
	wg.Wait()
	if res == nil {
		t.FailNow()
	}
	g := p.Graph()
	if !sameRows(rowSet(g, res.Table), rowSet(g, before.Table)) {
		t.Fatalf("read across a migration returned %v, want %v", rowSet(g, res.Table), rowSet(g, before.Table))
	}
	if n := reg.Counter("cluster.read_retries").Value(); n != 1 {
		t.Fatalf("cluster.read_retries = %d, want 1", n)
	}
}
