package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/datagen"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/qcache"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// blockingSite parks every ExecuteSub until released (or its ctx dies),
// modeling a slow remote site so tests can fill the worker pool.
type blockingSite struct {
	st      *store.Store
	release chan struct{}
}

func (s blockingSite) ExecuteSub(ctx context.Context, sub *sparql.Query, _ cluster.SubOpts) (*store.Table, cluster.SubStats, error) {
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, cluster.SubStats{}, ctx.Err()
	}
	tab, err := s.st.Match(sub)
	return tab, cluster.SubStats{}, err
}

// testClusters builds an in-process cluster and a blocking twin over the
// same 2-site subject-hash layout.
func testClusters(t *testing.T) (fast, slow *cluster.Cluster, release chan struct{}) {
	t.Helper()
	g := datagen.LUBM{}.Generate(3000, 1)
	layout, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err = cluster.New(layout, nil, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	release = make(chan struct{})
	sites := make([]cluster.Site, layout.NumSites())
	for i := range sites {
		sites[i] = blockingSite{st: store.New(g, layout.SiteTriples(i)), release: release}
	}
	slow, err = cluster.NewWithSites(layout, nil, cluster.Config{}, sites)
	if err != nil {
		t.Fatal(err)
	}
	return fast, slow, release
}

func testQuery(i int) *sparql.Query {
	return sparql.MustParse(fmt.Sprintf(
		`SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor%d> ?y }`, i%3))
}

func TestDoServesQueries(t *testing.T) {
	fast, _, _ := testClusters(t)
	s := New(fast, Options{Workers: 4, QueueDepth: 8})
	defer s.Close()

	q := sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y }`)
	want, err := fast.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first request reported a cache hit with no cache configured")
	}
	if resp.Result.Table.Len() != want.Table.Len() {
		t.Fatalf("scheduler answer has %d rows, want %d", resp.Result.Table.Len(), want.Table.Len())
	}
}

// TestAdmissionControl fills every worker and the whole queue with blocked
// requests; the next request must be rejected immediately, not queued or
// blocked.
func TestAdmissionControl(t *testing.T) {
	reg := obs.NewRegistry()
	_, slow, release := testClusters(t)
	const workers, depth = 2, 2
	s := New(slow, Options{Workers: workers, QueueDepth: depth, Obs: reg})
	var relOnce sync.Once
	rel := func() { relOnce.Do(func() { close(release) }) }
	defer func() { rel(); s.Close() }()

	var wg sync.WaitGroup
	errs := make(chan error, workers+depth)
	for i := 0; i < workers+depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := s.Do(context.Background(), testQuery(0))
				if errors.Is(err, ErrOverloaded) {
					// Lost the admission race to a sibling while the
					// workers were still picking up tasks; retry. The pool
					// plus queue fit all of us, so everyone admits
					// eventually.
					time.Sleep(time.Millisecond)
					continue
				}
				errs <- err
				return
			}
		}()
	}
	// Wait until the pool and queue are saturated.
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Counters["serve.admitted"] < workers+depth {
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	rejectedBefore := reg.Snapshot().Counters["serve.rejected"]

	t0 := time.Now()
	_, err := s.Do(context.Background(), testQuery(0))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated scheduler returned %v, want ErrOverloaded", err)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Fatalf("rejection took %v; overload must fail fast", d)
	}
	if n := reg.Snapshot().Counters["serve.rejected"]; n != rejectedBefore+1 {
		t.Fatalf("serve.rejected = %d, want %d", n, rejectedBefore+1)
	}

	rel()
	wg.Wait()
	for i := 0; i < workers+depth; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("blocked request failed after release: %v", err)
		}
	}
	s.Close()
	if _, err := s.Do(context.Background(), testQuery(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close returned %v, want ErrClosed", err)
	}
}

// TestCacheHitBypassesWorkers saturates the pool, then asks for a query
// whose answer is cached: it must come back immediately without a worker.
func TestCacheHitBypassesWorkers(t *testing.T) {
	fast, slow, release := testClusters(t)
	cache := qcache.New(qcache.Options{MaxBytes: 1 << 20})
	s := New(slow, Options{Workers: 1, QueueDepth: 1, Cache: cache})
	defer func() { close(release); s.Close() }()

	// Seed the cache out of band with the in-process cluster's answer.
	q := testQuery(0)
	want, err := fast.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(q, want)

	// Jam the single worker with a different (uncached) query.
	go s.Do(context.Background(), testQuery(1))
	time.Sleep(10 * time.Millisecond)

	t0 := time.Now()
	resp, err := s.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("expected a cache hit")
	}
	if resp.Result != want {
		t.Fatal("cache hit returned a different result object")
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("cache hit took %v with a jammed pool; hits must bypass workers", d)
	}
}

// TestCancelledRequestReturnsPromptly cancels a request that is blocked on
// a slow site; Do must return ctx.Err() well before the site releases.
func TestCancelledRequestReturnsPromptly(t *testing.T) {
	_, slow, release := testClusters(t)
	s := New(slow, Options{Workers: 2, QueueDepth: 2})
	defer func() { close(release); s.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, testQuery(0))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the blocking site
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Do returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Do did not return promptly")
	}
}

// TestPlanReuse checks the scheduler plans a repeated query once.
func TestPlanReuse(t *testing.T) {
	fast, _, _ := testClusters(t)
	s := New(fast, Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	q := testQuery(0)
	p1 := s.planFor(q)
	p2 := s.planFor(q)
	if p1 != p2 {
		t.Fatal("repeated query was re-planned")
	}
	if p1 != s.planFor(sparql.MustParse(q.String())) {
		t.Fatal("canonically identical query missed the plan cache")
	}
}

// TestConcurrentDoMatchesSerial races many concurrent Do calls against the
// serial Execute answers on a shared scheduler (race detector coverage for
// the whole serve path, cache included).
func TestConcurrentDoMatchesSerial(t *testing.T) {
	fast, _, _ := testClusters(t)
	cache := qcache.New(qcache.Options{MaxBytes: 1 << 20})
	s := New(fast, Options{Workers: 4, QueueDepth: 64, Cache: cache})
	defer s.Close()

	want := map[string]int{}
	for i := 0; i < 3; i++ {
		q := testQuery(i)
		res, err := fast.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q.String()] = res.Table.Len()
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := testQuery(w + i)
				resp, err := s.Do(context.Background(), q)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got := resp.Result.Table.Len(); got != want[q.String()] {
					t.Errorf("worker %d: %s: %d rows, want %d", w, q, got, want[q.String()])
				}
			}
		}(w)
	}
	wg.Wait()
}
