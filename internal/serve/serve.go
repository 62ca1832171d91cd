// Package serve is the concurrent query-serving layer on top of a cluster
// coordinator: a bounded worker pool with admission control in front of
// cluster.ExecutePlan, a plan cache that reuses each query's decomposition
// across requests, and an optional qcache result cache that turns repeated
// hot queries into O(1) lookups.
//
// The admission policy is deliberate: the queue has a fixed depth, and a
// request arriving at a full queue is rejected immediately with
// ErrOverloaded rather than queued — the fast-429 discipline that keeps
// tail latency bounded under overload (cmd/mpc-server maps it to HTTP
// 429). Cache hits bypass admission entirely: serving a memoized answer
// costs no worker slot.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/obs"
	"mpc/internal/qcache"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

// ErrOverloaded is returned when the admission queue is full. The request
// was not executed and can be retried later.
var ErrOverloaded = errors.New("serve: overloaded, queue full")

// ErrClosed is returned for requests after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// Options tunes a scheduler.
type Options struct {
	// Workers is the number of concurrent executions. More workers than
	// CPUs is useful for remote clusters, where a worker spends most of its
	// time waiting on site RPCs. Default 8.
	Workers int
	// QueueDepth bounds the admission queue; a request arriving when
	// QueueDepth requests are already waiting is rejected with
	// ErrOverloaded. Default 64.
	QueueDepth int
	// Cache, when non-nil, memoizes whole query results. Hits are served
	// without consuming a worker.
	Cache *qcache.Cache
	// MaxPlans bounds the plan cache (decompositions reused across
	// requests). Default 1024.
	MaxPlans int
	// Obs receives scheduler metrics. Nil disables instrumentation.
	Obs *obs.Registry
}

// Response is one served query: the execution result (possibly shared with
// other requests when it came from the cache — treat it as immutable) and
// how it was produced.
type Response struct {
	Result *cluster.Result
	// CacheHit reports that Result came from the result cache; its Stats
	// describe the execution that originally populated the entry.
	CacheHit bool
}

// task is one admitted request waiting for a worker.
type task struct {
	ctx      context.Context
	plan     *cluster.Plan
	q        *sparql.Query
	admitted time.Time
	done     chan taskResult
}

// taskResult is the worker's answer to one task.
type taskResult struct {
	res *cluster.Result
	err error
}

// Scheduler serves queries against one shared cluster with bounded
// concurrency. Safe for concurrent Do calls.
type Scheduler struct {
	c     *cluster.Cluster
	cache *qcache.Cache
	opts  Options

	admitted  *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failures  *obs.Counter
	queueLen  *obs.Gauge
	waitNS    *obs.Histogram
	totalNS   *obs.Histogram

	planMu   sync.Mutex
	plans    map[uint64]planEntry
	maxPlans int

	mu     sync.RWMutex // guards tasks against send-after-close
	closed bool
	tasks  chan task
	wg     sync.WaitGroup

	// beforePublish, when set (tests only), runs between an execution's
	// return and the publish of its result into the cache.
	beforePublish func()
}

// planEntry is one cached decomposition, verified by canonical string on
// hit (digest collisions degrade to a re-plan, never a wrong plan).
type planEntry struct {
	canon string
	plan  *cluster.Plan
}

// New builds a scheduler and starts its workers.
func New(c *cluster.Cluster, opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxPlans <= 0 {
		opts.MaxPlans = 1024
	}
	s := &Scheduler{
		c:        c,
		cache:    opts.Cache,
		opts:     opts,
		plans:    make(map[uint64]planEntry),
		maxPlans: opts.MaxPlans,
		tasks:    make(chan task, opts.QueueDepth),
	}
	if r := opts.Obs; r != nil {
		s.admitted = r.Counter("serve.admitted")
		s.rejected = r.Counter("serve.rejected")
		s.completed = r.Counter("serve.completed")
		s.failures = r.Counter("serve.failures")
		s.queueLen = r.Gauge("serve.queue_depth")
		s.waitNS = r.Histogram("serve.wait_ns")
		s.totalNS = r.Histogram("serve.total_ns")
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker executes admitted tasks until the queue closes.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		s.waitNS.ObserveDuration(time.Since(t.admitted))
		if err := t.ctx.Err(); err != nil {
			// The caller gave up while the task sat in the queue; don't
			// burn cluster work on an abandoned request.
			t.done <- taskResult{err: err}
			continue
		}
		// Capture the cache epoch before touching any data: if a write
		// commits while this execution runs, Invalidate advances the epoch
		// and the PutEpoch below discards the possibly-stale result
		// instead of resurrecting it into the freshly cleared cache.
		epoch := s.cache.Epoch()
		res, err := s.c.ExecutePlan(t.ctx, t.plan)
		if err == nil {
			if s.beforePublish != nil {
				s.beforePublish()
			}
			s.cache.PutEpoch(t.q, res, epoch)
		}
		t.done <- taskResult{res: res, err: err}
	}
}

// planFor returns the cached plan for q, planning and caching on miss.
func (s *Scheduler) planFor(q *sparql.Query) *cluster.Plan {
	canon := q.String()
	digest := qcache.Digest(q)
	s.planMu.Lock()
	if e, ok := s.plans[digest]; ok && e.canon == canon {
		s.planMu.Unlock()
		return e.plan
	}
	s.planMu.Unlock()

	p := s.c.Plan(q)

	s.planMu.Lock()
	if len(s.plans) >= s.maxPlans {
		// Evict an arbitrary entry; plans are cheap to rebuild and the cap
		// only exists to bound memory under adversarial query diversity.
		for d := range s.plans {
			delete(s.plans, d)
			break
		}
	}
	s.plans[digest] = planEntry{canon: canon, plan: p}
	s.planMu.Unlock()
	return p
}

// Do serves one query: result cache first, then admission into the worker
// queue. It blocks until the query completes, ctx is cancelled, or the
// queue is full (immediate ErrOverloaded, no waiting).
func (s *Scheduler) Do(ctx context.Context, q *sparql.Query) (*Response, error) {
	t0 := time.Now()
	if res, ok := s.cache.Get(q); ok {
		s.totalNS.ObserveDuration(time.Since(t0))
		return &Response{Result: res, CacheHit: true}, nil
	}

	t := task{ctx: ctx, plan: s.planFor(q), q: q, admitted: time.Now(), done: make(chan taskResult, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.tasks <- t:
		s.mu.RUnlock()
		s.admitted.Inc()
		s.queueLen.Set(int64(len(s.tasks)))
	default:
		s.mu.RUnlock()
		s.rejected.Inc()
		return nil, ErrOverloaded
	}

	select {
	case r := <-t.done:
		if r.err != nil {
			s.failures.Inc()
			return nil, r.err
		}
		s.completed.Inc()
		s.totalNS.ObserveDuration(time.Since(t0))
		return &Response{Result: r.res}, nil
	case <-ctx.Done():
		// The worker (or the queue scan) will notice the dead ctx; the
		// buffered done channel lets it finish without us.
		s.failures.Inc()
		return nil, ctx.Err()
	}
}

// Invalidate drops every cached plan and advances the result cache's
// epoch, clearing it. Call it after any mutation of the underlying data;
// Apply does so automatically.
func (s *Scheduler) Invalidate() {
	s.planMu.Lock()
	s.plans = make(map[uint64]planEntry)
	s.planMu.Unlock()
	s.cache.Advance()
}

// Apply commits a write batch through the serving layer with the ordering
// a correct cache requires: the cluster applies the batch (coordinator
// graph, layout, every site), then plans and cached results are
// invalidated, and only then does Apply return — so a caller that
// acknowledges the write after Apply can never observe a pre-write cached
// answer afterwards. Invalidation runs even when a site failed: the
// coordinator's state has already moved.
func (s *Scheduler) Apply(ctx context.Context, ops []rdf.Op) (rdf.ApplyStats, error) {
	stats, err := s.c.Apply(ctx, ops)
	s.Invalidate()
	return stats, err
}

// Close stops admission and waits for in-flight work to finish. Queued
// tasks still execute; subsequent Do calls return ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.tasks)
	s.mu.Unlock()
	s.wg.Wait()
}
