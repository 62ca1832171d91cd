package serve

import (
	"context"
	"testing"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/qcache"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// updatableBlockingSite parks ExecuteSub like blockingSite but also accepts
// update batches, so tests can interleave a committed write with an
// execution that is still reading pre-write data.
type updatableBlockingSite struct {
	st      *store.Store
	entered chan struct{} // one token per ExecuteSub entry
	release chan struct{}
}

func (s updatableBlockingSite) ExecuteSub(ctx context.Context, sub *sparql.Query, _ cluster.SubOpts) (*store.Table, cluster.SubStats, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, cluster.SubStats{}, ctx.Err()
	}
	tab, err := s.st.Match(sub)
	return tab, cluster.SubStats{}, err
}

func (s updatableBlockingSite) ApplyUpdate(ctx context.Context, batch cluster.UpdateBatch) (cluster.SiteUpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return cluster.SiteUpdateResult{}, err
	}
	return cluster.SiteUpdateResult{Stats: s.st.ApplyResolved(batch.Ops)}, nil
}

// updatableClusters is testClusters with updatable blocking sites on the
// slow twin and an entry-signal channel, for deterministic write/read
// interleavings.
func updatableClusters(t *testing.T) (fast, slow *cluster.Cluster, entered, release chan struct{}) {
	t.Helper()
	g := datagen.LUBM{}.Generate(3000, 1)
	layout, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err = cluster.New(layout, nil, cluster.Config{Mode: cluster.ModeStarOnly})
	if err != nil {
		t.Fatal(err)
	}
	entered = make(chan struct{}, 16)
	release = make(chan struct{})
	sites := make([]cluster.Site, layout.NumSites())
	for i := range sites {
		sites[i] = updatableBlockingSite{st: store.New(g, layout.SiteTriples(i)), entered: entered, release: release}
	}
	slow, err = cluster.NewWithSites(layout, nil, cluster.Config{Mode: cluster.ModeStarOnly}, sites)
	if err != nil {
		t.Fatal(err)
	}
	return fast, slow, entered, release
}

// TestApplyInvalidatesCache is the serving layer's half of the tentpole
// guarantee: once Apply returns, a previously cached answer is gone and the
// next request recomputes against the mutated data — a committed write can
// never leave a stale cached answer behind.
func TestApplyInvalidatesCache(t *testing.T) {
	fast, _, _ := testClusters(t)
	cache := qcache.New(qcache.Options{MaxBytes: 1 << 20})
	s := New(fast, Options{Workers: 2, QueueDepth: 8, Cache: cache})
	defer s.Close()
	ctx := context.Background()
	q := testQuery(0)

	first, err := s.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	base := first.Result.Table.Len()
	if hit, err := s.Do(ctx, q); err != nil || !hit.CacheHit {
		t.Fatalf("repeat before write: err=%v hit=%v, want cache hit", err, hit != nil && hit.CacheHit)
	}

	ins := rdf.Op{Insert: true, S: "u:newstudent", P: "http://lubm.example.org/univ#advisor0", O: "u:newprof"}
	stats, err := s.Apply(ctx, []rdf.Op{ins})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 {
		t.Fatalf("stats = %+v, want 1 insert", stats)
	}
	resp, err := s.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first request after Apply was served from the cache")
	}
	if got := resp.Result.Table.Len(); got != base+1 {
		t.Fatalf("post-insert answer has %d rows, want %d", got, base+1)
	}

	if _, err := s.Apply(ctx, []rdf.Op{{S: ins.S, P: ins.P, O: ins.O}}); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first request after the delete was served from the cache")
	}
	if got := resp.Result.Table.Len(); got != base {
		t.Fatalf("post-delete answer has %d rows, want %d", got, base)
	}
	// With no further writes the cache works again.
	if hit, err := s.Do(ctx, q); err != nil || !hit.CacheHit {
		t.Fatalf("repeat after writes settled: err=%v, want cache hit", err)
	}
}

// TestApplyFencesStaleExecution drives the stale-publish race the epoch
// fence exists for: an execution that started before a write (and so read
// pre-write data) finishes after the write committed. Its result must not
// land in the cache — the next request has to recompute and see the write.
func TestApplyFencesStaleExecution(t *testing.T) {
	fast, slow, entered, release := updatableClusters(t)
	cache := qcache.New(qcache.Options{MaxBytes: 1 << 20})
	s := New(slow, Options{Workers: 1, QueueDepth: 4, Cache: cache})
	defer s.Close()
	ctx := context.Background()
	q := testQuery(0)

	want, err := fast.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	base := want.Table.Len()

	// Start an execution and wait until it is parked inside a site read.
	doDone := make(chan *Response, 1)
	go func() {
		resp, err := s.Do(ctx, q)
		if err != nil {
			t.Error(err)
		}
		doDone <- resp
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("execution never reached a site")
	}

	// Commit a write. Apply serializes behind the in-flight execution's
	// cluster read-lock, so release the sites and let the race between the
	// worker's publish and Apply's invalidation play out.
	applyDone := make(chan error, 1)
	go func() {
		_, err := s.Apply(ctx, []rdf.Op{{Insert: true,
			S: "u:newstudent", P: "http://lubm.example.org/univ#advisor0", O: "u:newprof"}})
		applyDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Apply reach the cluster lock
	close(release)

	resp := <-doDone
	if err := <-applyDone; err != nil {
		t.Fatal(err)
	}
	if resp == nil {
		t.Fatal("blocked Do failed")
	}
	if got := resp.Result.Table.Len(); got != base {
		t.Fatalf("pre-write execution returned %d rows, want %d", got, base)
	}

	// Do has returned, so the worker's PutEpoch has already run; whatever
	// order it raced into against Invalidate, the stale answer must not be
	// served now.
	after, err := s.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("stale pre-write result was resurrected into the cache")
	}
	if got := after.Result.Table.Len(); got != base+1 {
		t.Fatalf("post-write answer has %d rows, want %d (the committed insert)", got, base+1)
	}
}
