package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"mpc/internal/qcache"
	"mpc/internal/rdf"
)

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
// fence exists for: an execution validated its answer against the
// pre-write state, and its worker publishes that answer only after a write
// committed and Apply invalidated the cache. The answer itself is correct
// — the read linearizes before the write — but it must not be resurrected
// into the cache: the next request has to recompute and see the write.
func TestApplyFencesStaleExecution(t *testing.T) {
	fast, _, _ := testClusters(t)
	cache := qcache.New(qcache.Options{MaxBytes: 1 << 20})
	s := New(fast, Options{Workers: 1, QueueDepth: 4, Cache: cache})
	defer s.Close()
	ctx := context.Background()
	q := testQuery(0)

	want, err := fast.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	base := want.Table.Len()

	// Park the first execution between ExecutePlan's return and the
	// worker's publish.
	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	s.beforePublish = func() {
		once.Do(func() {
			close(parked)
			<-resume
		})
	}
	doDone := make(chan *Response, 1)
	go func() {
		resp, err := s.Do(ctx, q)
		if err != nil {
			t.Error(err)
		}
		doDone <- resp
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("execution never finished")
	}

	// Commit a write while the validated answer waits to be published. The
	// execution holds no cluster lock any more, so Apply completes.
	applyDone := make(chan error, 1)
	go func() {
		_, err := s.Apply(ctx, []rdf.Op{{Insert: true,
			S: "u:newstudent", P: "http://lubm.example.org/univ#advisor0", O: "u:newprof"}})
		applyDone <- err
	}()
	select {
	case err := <-applyDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(resume)
		t.Fatal("Apply waited for an execution that had already finished")
	}
	close(resume)

	resp := <-doDone
	if resp == nil {
		t.Fatal("parked Do failed")
	}
	if got := resp.Result.Table.Len(); got != base {
		t.Fatalf("pre-write execution returned %d rows, want %d", got, base)
	}

	// Do has returned, so the worker's PutEpoch has already run, after
	// Apply's Invalidate; the pre-write answer must not be served now.
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
