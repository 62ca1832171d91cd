package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Workload names are permanent: later changes are judged against them.
const (
	wlWatDiv  = "watdiv_uncached"
	wlLUBM    = "lubm_scan"
	wlZipf    = "zipf_rw"
	wlOffline = "offline"
)

var workloadNames = []string{wlWatDiv, wlLUBM, wlZipf, wlOffline}

// Config is one invocation's settings; only generated inputs derived from
// Seed reach the system under test.
type Config struct {
	Seed     int64   // generates the traffic, and the offline workload's datasets
	DataSeed int64   // generates the serving workloads' graphs and seeds their partitioner
	Seconds  float64 // timed window per workload
	Clients  int     // closed-loop clients: nproc and no more
	Scale    float64 // dataset size multiplier: 1; the smoke test uses less
	Dir      string  // scratch directory for snapshots and N-Triples files
	Logf     func(format string, args ...any)

	// The metric lists of BENCHMARK.json: what each pass must report.
	EndToEnd, PerLayer []metric
}

func (c Config) triples(n int) int {
	t := int(float64(n) * c.Scale)
	if t < 4000 {
		t = 4000
	}
	return t
}

// Report is one workload's outcome.
type Report struct {
	Workload  string
	Attempted int
	Failed    int
	Correct   bool
	E2E       map[string]float64 // nil when only the traced pass ran
	Layers    map[string]float64 // nil when only the window ran
	Notes     []string           // sample counts, sizes, digests
	Spans     []Span
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// tails names the percentiles a workload's sample supports with at least ten
// samples beyond them (stats.go): a workload that cannot support p99 reports
// the highest percentile it can in that slot. The choice is fixed per
// workload, not per run, so a metric never changes meaning because a
// window happened to collect a few samples more or fewer.
type tails struct{ p95, p99 float64 }

// servingSpec is what differs between the three serving workloads.
type servingSpec struct {
	name    string
	dataset string
	triples int
	cache   bool // result cache on, budget = pool bytes / cacheShare
	writer  bool // paced writer beside the readers
	tails   tails
	queries func(d *Dataset, seed, dataSeed int64) []Query
	picker  func(n int, seed int64, client int) picker

	tracedReads   int // serial ops in the traced pass
	tracedBatches int // writer batches interleaved with them
	directOps     int // of those, how many also run below the scheduler
}

// cacheShare: the pool's summed result bytes are this many times the
// result-cache budget, so zipf_rw is larger than the cache it exercises.
const cacheShare = 4

// servingSpecs: the serving graphs and their layouts come from
// cfg.DataSeed (default 1), the traffic — which queries with which
// constants in which order, the Zipf draws, the writer's triples — from
// cfg.Seed. A deployment's data does not change between runs, and MPC's
// choice of crossing properties moves with the data: across generator seeds
// the same WatDiv log is 53–72 % independently executable and its median
// latency varies threefold, which would drown any change this benchmark is
// meant to resolve. -data-seed moves the graph and the layout for the
// unseen-seed check. The offline workload's datasets are its input and come
// from cfg.Seed.
func servingSpecs(cfg Config) map[string]*servingSpec {
	laps := func(n int, seed int64, c int) picker { return shuffledLaps(n, seed*1000+int64(c)) }
	return map[string]*servingSpec{
		wlWatDiv: {
			name: wlWatDiv, dataset: "WatDiv", triples: cfg.triples(1_000_000),
			tails:       tails{0.95, 0.99},
			queries:     func(d *Dataset, seed, _ int64) []Query { return d.WatDivLog(100, seed) },
			picker:      laps,
			tracedReads: 500, directOps: 500,
		},
		wlLUBM: {
			name: wlLUBM, dataset: "LUBM", triples: cfg.triples(2_000_000),
			tails: tails{0.95, 0.95}, // a few hundred samples: the tail is p95
			// The nine queries belong to the data (GQ1/2/3/6 draw their two
			// properties by frequency, and their cost with them); -seed
			// orders the draws.
			queries:     func(d *Dataset, _, dataSeed int64) []Query { return d.LUBMScanQueries(dataSeed) },
			picker:      laps,
			tracedReads: 27, directOps: 27,
		},
		wlZipf: {
			name: wlZipf, dataset: "LUBM", triples: cfg.triples(300_000),
			cache: true, writer: true,
			tails:   tails{0.95, 0.99},
			queries: func(d *Dataset, seed, dataSeed int64) []Query { return d.LUBMPool(40, seed, dataSeed) },
			picker: func(n int, seed int64, c int) picker {
				return zipfPick(n, 1.1, seed*1000+int64(c)+1)
			},
			tracedReads: 2000, tracedBatches: 100, directOps: 300,
		},
	}
}

// servingEnv is a set-up serving workload, ready for its window.
type servingEnv struct {
	spec     *servingSpec
	cfg      Config
	dir      string
	d        *Dataset
	digest   string
	qs       []Query
	golden   []Answer
	variant  []bool // answer changes while writer residue is present
	sut      *SUT
	pool     *writerPool
	batches  int // steady writer batches applied so far
	budget   int64
	poolSize int64
	live0    int // live triples before the first write
	ieqShare float64
	stageS   map[string]float64
	setupS   float64
}

func (e *servingEnv) Close() {
	if e.sut != nil {
		e.sut.Close()
		e.sut = nil
	}
	os.RemoveAll(e.dir)
}

// setupServing does everything that precedes a window, lazily-initialised
// state included, so that none of it is paid inside the window: generate,
// golden answers, partition, snapshot, open, connect, a strict-digest
// warm-up pass over every distinct query (plan cache, page faults, decoded
// blocks), the writer's first Apply (which seeds the drift monitor) and
// its initial residue.
func setupServing(spec *servingSpec, cfg Config, traced bool, tag string) (env *servingEnv, err error) {
	ctx := context.Background()
	start := time.Now()
	env = &servingEnv{spec: spec, cfg: cfg, stageS: map[string]float64{}, dir: filepath.Join(cfg.Dir, spec.name+"-"+tag)}
	defer func() {
		if err != nil {
			env.Close()
		}
	}()
	stage := func(name string, t time.Time) { env.stageS[name] = time.Since(t).Seconds() }

	t := time.Now()
	if env.d, err = GenerateDataset(spec.dataset, spec.triples, cfg.DataSeed); err != nil {
		return env, err
	}
	env.digest = env.d.Digest()
	env.qs = spec.queries(env.d, cfg.Seed, cfg.DataSeed)
	if len(env.qs) == 0 {
		return env, fmt.Errorf("%s: empty query pool", spec.name)
	}
	env.live0 = env.d.LiveTriples()
	stage("generate", t)

	t = time.Now()
	if env.golden, err = env.d.Golden(env.qs, cfg.Clients); err != nil {
		return env, err
	}
	stage("golden", t)

	opts := SUTOptions{Seed: cfg.DataSeed, Dir: env.dir, Traced: traced}
	if spec.cache {
		for _, a := range env.golden {
			env.poolSize += a.Bytes
		}
		env.budget = env.poolSize / cacheShare
		opts.CacheBytes = env.budget
	}
	if env.sut, err = BuildSUT(env.d, opts); err != nil {
		return env, err
	}
	for k, v := range env.sut.StageS {
		env.stageS[k] = v
	}
	if env.ieqShare, err = env.sut.IEQShare(env.qs); err != nil {
		return env, err
	}

	t = time.Now()
	if err = env.strictPass(ctx, "warm-up"); err != nil {
		return env, err
	}
	stage("warmup", t)

	if spec.writer {
		t = time.Now()
		if err = env.prefill(ctx); err != nil {
			return env, err
		}
		stage("prefill", t)
	}
	runtime.GC()
	env.setupS = time.Since(start).Seconds()
	return env, nil
}

// strictPass sends every distinct query through the serving path and
// compares its sort-based canonical digest with the golden one.
func (e *servingEnv) strictPass(ctx context.Context, when string) error {
	return forEachParallel(len(e.qs), e.cfg.Clients, func(i int) error {
		r, err := e.sut.Op(ctx, e.qs[i].Text)
		if err != nil {
			return fmt.Errorf("%s %s %s: %w", e.spec.name, when, e.qs[i].Name, err)
		}
		if got := r.StrictDigest(); got != e.golden[i].Digest {
			return fmt.Errorf("%s %s %s: digest %016x, golden %016x", e.spec.name, when, e.qs[i].Name, got, e.golden[i].Digest)
		}
		return nil
	})
}

// prefill commits the writer's whole triple pool, notes which queries'
// answers move while it is present, then deletes all but the stationary
// residue. A query unmoved by the whole pool is unmoved by any part of it
// (the pool's vertices touch nothing else), so its in-window replies can
// be held to the golden answer while the writer runs.
func (e *servingEnv) prefill(ctx context.Context) error {
	e.pool = newWriterPool(e.d.PropertyNames(), e.cfg.Seed)
	for i := 0; i < writerSlices; i++ {
		if err := e.sut.Apply(ctx, e.pool.insert(i)); err != nil {
			return fmt.Errorf("prefill insert %d: %w", i, err)
		}
	}
	e.variant = make([]bool, len(e.qs))
	err := forEachParallel(len(e.qs), e.cfg.Clients, func(i int) error {
		r, err := e.sut.Op(ctx, e.qs[i].Text)
		if err != nil {
			return fmt.Errorf("prefill pass %s: %w", e.qs[i].Name, err)
		}
		rows, fp := r.Fingerprint()
		e.variant[i] = rows != e.golden[i].Rows || fp != e.golden[i].FP
		return nil
	})
	if err != nil {
		return err
	}
	for i := writerResidue; i < writerSlices; i++ {
		if err := e.sut.Apply(ctx, e.pool.delete(i)); err != nil {
			return fmt.Errorf("prefill delete %d: %w", i, err)
		}
	}
	return nil
}

// drain deletes the writer's residue and checks the graph is back where it
// started: same live-triple count, every distinct query at its golden
// digest again. It returns how many of those checks failed.
func (e *servingEnv) drain(ctx context.Context, rep *Report) int {
	failed := 0
	for _, sl := range e.pool.live(e.batches) {
		if err := e.sut.Apply(ctx, e.pool.delete(sl)); err != nil {
			rep.notef("drain: %v", err)
			failed++
		}
	}
	if live := e.d.LiveTriples(); live != e.live0 {
		rep.notef("drain: %d live triples, started with %d", live, e.live0)
		failed++
	}
	if err := e.strictPass(ctx, "post-drain"); err != nil {
		rep.notef("drain: %v", err)
		failed++
	}
	return failed
}

func (e *servingEnv) pickers(n int) []picker {
	ps := make([]picker, n)
	for c := range ps {
		ps[c] = e.spec.picker(len(e.qs), e.cfg.Seed, c)
	}
	return ps
}

func (e *servingEnv) newChecker() checker { return fingerprintChecker(e.golden, e.variant) }

// window is what one untraced window measured, before it is named.
type window struct {
	setupS  float64
	correct int       // verified-correct operations
	seconds float64   // the window's wall time
	lat     latencies // per operation
	tails   tails
	upd     latencies // per writer batch, from its due time; nil without a writer
	heapMB  float64
}

// e2e names the measured end-to-end metrics; the three layout counts are the
// caller's.
//
// The writer's latency is reported as its lower quartile and its mean. A
// batch that finds no read in flight costs Apply alone (≈0.5 ms); one that
// arrives behind a read waits for it on the coordinator's state lock, up to
// the ≈25 ms of the pool's slowest query. About half the batches wait, so
// the median sits on the knee between the two and moved 35 % between runs
// of the same code, p95 16 %: 500 batches are too few to fix where that tail
// lies. The lower quartile is Apply's own cost under load (what an fsync
// before the ack would raise); the mean carries the waiting, the tail and
// the backlog a stall imposes on the batches behind it. p50 and p95 are
// printed beside them.
//
// A workload without a writer has no update path, yet every workload must
// report every metric and none may be 0: there both update slots repeat
// op_p50_ms — the same number, the same verdict, nothing new gated.
func (w window) e2e() map[string]float64 {
	m := map[string]float64{
		"setup_s":        w.setupS,
		"qps":            float64(w.correct) / w.seconds,
		"op_p50_ms":      w.lat.p(0.50),
		"op_p95_ms":      w.lat.p(w.tails.p95),
		"op_p99_ms":      w.lat.p(w.tails.p99),
		"update_p25_ms":  w.lat.p(0.50),
		"update_mean_ms": w.lat.p(0.50),
		"heap_live_mb":   w.heapMB,
	}
	if w.upd != nil {
		m["update_p25_ms"], m["update_mean_ms"] = w.upd.p(0.25), mean(w.upd)
	}
	return m
}

// noteTails states which percentile each tail slot holds and flags a window
// whose sample does not support it.
func (w window) noteTails(rep *Report) {
	rep.notef("op latency over %d samples: op_p50_ms p50 %.4f, op_p95_ms is p%g %.4f, op_p99_ms is p%g %.4f; the sample supports p%g",
		len(w.lat), w.lat.p(0.5), 100*w.tails.p95, w.lat.p(w.tails.p95), 100*w.tails.p99, w.lat.p(w.tails.p99), 100*pickTail(len(w.lat)))
	if pickTail(len(w.lat)) < w.tails.p99 {
		rep.notef("FLAG %d samples leave fewer than %d beyond p%g", len(w.lat), minBeyond, 100*w.tails.p99)
	}
}

func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runServingWindow is the untraced, timed part: one set-up, one closed-loop
// window, the checks.
func runServingWindow(spec *servingSpec, cfg Config) (*Report, error) {
	ctx := context.Background()
	rep := &Report{Workload: spec.name}
	env, err := setupServing(spec, cfg, false, "window")
	if err != nil {
		return nil, err
	}
	defer env.Close()

	readers := cfg.Clients
	if spec.writer {
		readers = max(1, cfg.Clients-1)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var wlog pacedLog
	var wg sync.WaitGroup
	if spec.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wlog = runPaced(start, deadline, time.Second/writerRate, func(i int) error {
				return env.sut.Apply(ctx, env.pool.steady(i))
			}, time.Now, time.Sleep)
		}()
	}
	logs := closedLoop(ctx, env.sut, env.qs, env.pickers(readers), env.newChecker, deadline)
	wg.Wait()
	seconds := time.Since(start).Seconds()
	heap := heapLiveMB()
	env.batches = len(wlog.latMS)

	var all []float64
	var total clientLog
	for _, l := range logs {
		all = append(all, l.latMS...)
		total.attempted += l.attempted
		total.errors += l.errors
		total.rejected += l.rejected
		total.wrong += l.wrong
		total.checked += l.checked
		total.hits += l.hits
	}
	w := window{
		setupS: env.setupS, correct: len(all) - total.wrong, seconds: seconds,
		lat: sortedLatencies(all), tails: spec.tails, heapMB: heap,
	}
	rep.Attempted = total.attempted + len(wlog.latMS)
	rep.Failed = total.errors + total.rejected + total.wrong + wlog.errors
	if spec.writer {
		w.upd = sortedLatencies(wlog.latMS)
		rep.Failed += env.drain(ctx, rep)
	}
	rep.Correct = rep.Failed == 0 && len(w.lat) > 0

	e2e := w.e2e()
	e2e["crossing_properties"] = float64(env.sut.CrossingProperties)
	e2e["ieq_share"] = env.ieqShare
	e2e["snapshot_bytes_per_triple"] = safeDiv(float64(env.sut.SnapshotBytes), float64(env.d.Triples()))
	if rep.E2E, err = finish(e2e, cfg.EndToEnd); err != nil {
		return nil, err
	}

	env.describe(rep)
	rep.notef("window %.2fs, %d clients closed loop: %d ops, %d errors, %d rejected, %d wrong, %d fingerprint-checked, %d cache hits, failed_ratio %.6f",
		seconds, readers, total.attempted, total.errors, total.rejected, total.wrong, total.checked, total.hits,
		safeDiv(float64(rep.Failed), float64(rep.Attempted)))
	w.noteTails(rep)
	if spec.writer {
		rep.notef("writer open loop %d batches/s × %d ops: %d batches, %d errors; latency from due time p25 %.3f ms, p50 %.3f ms, p95 %.3f ms, mean %.3f ms; generator lateness p50 %.3f ms max %.3f ms",
			writerRate, 2*writerPerBatch, len(w.upd), wlog.errors, w.upd.p(0.25), w.upd.p(0.5), w.upd.p(0.95), mean(w.upd), median(wlog.lateMS), sortedLatencies(wlog.lateMS).p(1))
	} else {
		rep.notef("no writer: update_p25_ms and update_mean_ms repeat op_p50_ms")
	}
	return rep, nil
}

func (e *servingEnv) describe(rep *Report) {
	rep.notef("dataset %s (generator seed %d; traffic seed %d): %d triples, %d vertices, %d properties, digest %s",
		e.d.Name, e.cfg.DataSeed, e.cfg.Seed, e.d.Triples(), e.d.Vertices(), e.d.Properties(), e.digest)
	blocks := 3 * e.sut.SiteTriples / numSites / 1024
	rep.notef("layout k=%d ε=%.1f: |L_cross| %d, %d site triples (≈%d blocks/site vs the 512-entry decoded-block cache), snapshots %d bytes",
		numSites, epsilon, e.sut.CrossingProperties, e.sut.SiteTriples, blocks, e.sut.SnapshotBytes)
	rep.notef("%d distinct queries, %.1f%% independently executable", len(e.qs), 100*e.ieqShare)
	if e.spec.cache {
		rep.notef("result cache budget %d bytes; the pool's results sum to %d bytes (%.1f×)",
			e.budget, e.poolSize, safeDiv(float64(e.poolSize), float64(e.budget)))
	}
	if e.variant != nil {
		n := 0
		for _, v := range e.variant {
			if v {
				n++
			}
		}
		rep.notef("%d of %d queries move with the writer's residue and are only checked after the drain", n, len(e.qs))
	}
	var keys []string
	for k := range e.stageS {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := "set-up stages (s):"
	for _, k := range keys {
		line += fmt.Sprintf(" %s %.3f", k, e.stageS[k])
	}
	rep.Notes = append(rep.Notes, line)
}

// serialOps is the fixed op sequence of the serial passes: client 0's
// picker, so the untraced and the traced pass send the same queries in the
// same order.
func (e *servingEnv) serialOps() []int {
	next := e.spec.picker(len(e.qs), e.cfg.Seed, 0)
	ops := make([]int, e.spec.tracedReads)
	for i := range ops {
		ops[i] = next()
	}
	return ops
}

// batchDue reports whether a writer batch precedes read i of a serial pass.
func (e *servingEnv) batchDue(i int) bool {
	if e.spec.tracedBatches == 0 {
		return false
	}
	every := e.spec.tracedReads / e.spec.tracedBatches
	return i%every == 0 && i/every < e.spec.tracedBatches
}

// serialUntraced runs the serial op sequence with no instrumentation and
// returns the mean op time: the base of trace.overhead_ratio.
func (e *servingEnv) serialUntraced(ctx context.Context, rep *Report) (meanMS float64) {
	check := e.newChecker()
	var total time.Duration
	ops := e.serialOps()
	e.settle(ctx, ops)
	for i, qi := range ops {
		if e.batchDue(i) {
			if err := e.sut.Apply(ctx, e.pool.steady(e.batches)); err != nil {
				rep.Failed++
			}
			e.batches++
			rep.Attempted++
		}
		t0 := time.Now()
		r, err := e.sut.Op(ctx, e.qs[qi].Text)
		total += time.Since(t0)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			continue
		}
		if ok, _ := check(qi, r); !ok {
			rep.Failed++
		}
	}
	return float64(total.Nanoseconds()) / 1e6 / float64(len(ops))
}

// settle sends the serial op sequence once, unmeasured, so that the measured
// pass behind it starts from the same warm state on the untraced and the
// traced SUT (heap grown, blocks decoded, plans cached).
func (e *servingEnv) settle(ctx context.Context, ops []int) {
	for _, qi := range ops {
		e.sut.Op(ctx, e.qs[qi].Text) // outcome is checked by the measured pass
	}
}

// runServingTraced produces the per-layer numbers: a serial untraced pass
// for the overhead base, then a freshly set-up SUT with an obs.Registry
// attached through every public option and a span-recording decorator on
// each site, driven serially three times — through the scheduler, directly
// below it, and replayed against each site's store and the codecs.
func runServingTraced(spec *servingSpec, cfg Config) (*Report, error) {
	ctx := context.Background()
	rep := &Report{Workload: spec.name}

	base, err := setupServing(spec, cfg, false, "base")
	if err != nil {
		return nil, err
	}
	untracedMS := base.serialUntraced(ctx, rep)
	if spec.writer {
		rep.Failed += base.drain(ctx, rep)
	}
	base.Close()
	runtime.GC()

	env, err := setupServing(spec, cfg, true, "traced")
	if err != nil {
		return nil, err
	}
	defer env.Close()
	tr := env.sut.Tracer()
	ops := env.serialOps()
	check := env.newChecker()
	env.settle(ctx, ops)

	// Pass A: the op as served, through parse, scheduler and render.
	obs0 := env.sut.ObsSnapshot()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	hit := make([]bool, len(ops))
	var kept []OpResult // pass A's first replies, digested after the pass
	var checkNS int64
	for i, qi := range ops {
		if env.batchDue(i) {
			if err := env.sut.ApplyTraced(ctx, -1, env.pool.steady(env.batches)); err != nil {
				rep.Failed++
			}
			env.batches++
			rep.Attempted++
		}
		r, err := env.sut.OpTraced(ctx, i, env.qs[qi].Text)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			continue
		}
		hit[i] = r.CacheHit
		if len(kept) < spec.directOps {
			kept = append(kept, r)
		}
		t0 := time.Now()
		ok, _ := check(qi, r)
		checkNS += time.Since(t0).Nanoseconds()
		if !ok {
			rep.Failed++
		}
	}
	runtime.ReadMemStats(&mem1)
	obs1 := env.sut.ObsSnapshot()
	cacheBytes := float64(0)
	if spec.cache {
		cacheBytes = float64(env.sut.CacheBytes())
	}

	// What mpc-server adds per request on top of the timed op.
	t0 := time.Now()
	for _, r := range kept {
		r.StrictDigest()
	}
	digestMS := safeDiv(float64(time.Since(t0).Nanoseconds())/1e6, float64(len(kept)))
	kept = nil
	var probe []string
	if spec.cache {
		for _, qi := range ops {
			probe = append(probe, env.qs[qi].Text)
		}
	}
	getUS, putUS, err := env.sut.CacheProbe(probe, env.budget)
	if err != nil {
		return nil, err
	}

	// Pass B: Plan and ExecutePlan called directly; site calls captured.
	direct := make(map[int]bool)
	seen := make(map[int]bool)
	for i, qi := range ops {
		if len(direct) >= spec.directOps {
			break
		}
		if spec.cache && seen[qi] {
			continue // on a cached workload only first sightings reach the cluster
		}
		seen[qi] = true
		r, err := env.sut.PlanExecTraced(ctx, i, env.qs[qi].Text)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			continue
		}
		direct[i] = true
		if ok, _ := check(qi, r); !ok {
			rep.Failed++
		}
	}
	obs2 := env.sut.ObsSnapshot()

	// Pass C: each captured site call replayed against its store and codecs.
	if err := env.sut.Replay(tr.Spans()); err != nil {
		return nil, err
	}
	spans := tr.Spans()
	rep.Spans = spans

	if spec.writer {
		rep.Failed += env.drain(ctx, rep)
	}
	rep.Correct = rep.Failed == 0

	L, opWallMS := buildLedger(spans, hit, direct)
	dA := func(name string) float64 { return obs1[name] - obs0[name] }
	dAB := func(name string) float64 { return obs2[name] - obs0[name] }
	L["serve.wait_us"] = safeDiv(dA("serve.wait_ns.sum"), dA("serve.wait_ns.count")) / 1e3
	L["serve.rejected"] = dA("serve.rejected")
	L["qcache.hit_ratio"] = safeDiv(dA("qcache.hits"), dA("qcache.hits")+dA("qcache.misses"))
	L["qcache.get_us"] = getUS
	L["qcache.put_us"] = putUS
	L["qcache.evictions"] = dA("qcache.evictions")
	L["qcache.invalidations"] = dA("qcache.invalidations")
	L["qcache.bytes"] = cacheBytes
	L["cluster.tuples_shipped_per_op"] = safeDiv(dAB("net.tuples_shipped"), dAB("query.count"))
	L["cluster.join_output_rows_per_op"] = safeDiv(dAB("join.output_rows.sum"), dAB("query.count"))
	L["cluster.independent_ratio"] = safeDiv(dAB("query.independent"), dAB("query.count"))
	L["transport.retries"] = obs2["transport.retries"]
	L["transport.errors"] = obs2["transport.errors"]
	L["store.candidates_admitted_ratio"] = safeDiv(obs2["store.candidates_admitted"], obs2["store.candidates_scanned"])
	L["store.open_s"] = env.stageS["open"]
	L["store.heap_mb_per_mtriple"] = safeDiv(env.sut.OpenHeapMB, float64(env.sut.SiteTriples)/1e6)
	L["frontend.digest_ms"] = digestMS
	L["alloc_kb_per_op"] = safeDiv(float64(mem1.TotalAlloc-mem0.TotalAlloc), float64(len(ops))) / 1024
	L["trace.overhead_ratio"] = safeDiv(opWallMS, untracedMS)
	if rep.Layers, err = finish(L, cfg.PerLayer); err != nil {
		return nil, err
	}

	env.describe(rep)
	rep.notef("traced pass: %d serial ops through the scheduler (%d cache hits), %d below it, %d site calls replayed; untraced serial mean op %.4f ms, traced %.4f ms; the benchmark's own fingerprint check costs each client %.1f us between ops",
		len(ops), countTrue(hit), len(direct), countReplayed(spans), untracedMS, opWallMS, safeDiv(float64(checkNS), float64(len(ops)))/1e3)
	if r := L["ledger.sum_ratio"]; r < 0.9 || r > 1.1 {
		rep.notef("FLAG ledger.sum_ratio %.3f is outside 0.9–1.1: the layer parts do not add up to the op", r)
	}
	return rep, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func countReplayed(spans []Span) int {
	n := 0
	for i := range spans {
		if spans[i].MatchCalls > 0 {
			n++
		}
	}
	return n
}

// ------------------------------------------------------------------ offline

// offlineDatasets: DBpedia-like first (≈3 000 properties, so Alg. 1
// selection dominates), then LUBM (18 properties, so coarsening and k-way
// dominate).
var offlineDatasets = []string{"DBpedia", "LUBM"}

type offlineEnv struct {
	cfg     Config
	dir     string
	paths   []string
	digests []string
	triples []int
	ref     []OfflineStages // the warm-up round: every later round must repeat its counts
	setupS  float64
}

func (e *offlineEnv) Close() { os.RemoveAll(e.dir) }

func setupOffline(cfg Config, tag string) (env *offlineEnv, err error) {
	start := time.Now()
	env = &offlineEnv{cfg: cfg, dir: filepath.Join(cfg.Dir, wlOffline+"-"+tag)}
	defer func() {
		if err != nil {
			env.Close()
		}
	}()
	if err = os.MkdirAll(env.dir, 0o755); err != nil {
		return env, err
	}
	for _, name := range offlineDatasets {
		d, err := GenerateDataset(name, cfg.triples(500_000), cfg.Seed)
		if err != nil {
			return env, err
		}
		path := filepath.Join(env.dir, name+".nt")
		if err = d.SaveNTriples(path); err != nil {
			return env, err
		}
		env.paths = append(env.paths, path)
		env.digests = append(env.digests, d.Digest())
		env.triples = append(env.triples, d.Triples())
	}
	// One throw-away round: page cache, allocator and runtime warm, and the
	// counts every timed round must reproduce.
	rd, failed := env.round(nil)
	if failed > 0 {
		return env, fmt.Errorf("offline: warm-up round failed its checks")
	}
	env.ref = rd.stages
	runtime.GC()
	env.setupS = time.Since(start).Seconds()
	return env, nil
}

// offlineRound is one operation of the offline workload.
type offlineRound struct {
	wallS   float64
	stages  []OfflineStages
	ieq     int
	queries int
	keep    []*OfflineOutput // held open only when the caller asked
}

// round runs the pipeline over both files. Checks run after each dataset's
// clock has stopped. With hold non-nil the outputs stay open (heap_live_mb
// is read with stores open) and are appended to *hold.
func (e *offlineEnv) round(hold *[]*OfflineOutput) (offlineRound, int) {
	var rd offlineRound
	failed := 0
	for i, name := range offlineDatasets {
		out, err := OfflinePipeline(e.paths[i], name, filepath.Join(e.dir, "snap"), e.cfg.Seed)
		if err != nil {
			e.cfg.Logf("offline: %v", err)
			out.Release()
			return rd, failed + 1
		}
		st := out.Stages
		rd.wallS += st.WallS
		rd.stages = append(rd.stages, st)
		ieq, total := out.IEQ(e.cfg.Seed)
		rd.ieq += ieq
		rd.queries += total
		switch {
		case st.Triples != e.triples[i]:
			e.cfg.Logf("offline %s: ingested %d triples, wrote %d", name, st.Triples, e.triples[i])
			failed++
		case out.Digest() != e.digests[i]:
			e.cfg.Logf("offline %s: ingested graph digest differs from the generated graph's", name)
			failed++
		case st.StoredTriples != st.LayoutTriples:
			e.cfg.Logf("offline %s: stores hold %d triples, layout assigns %d", name, st.StoredTriples, st.LayoutTriples)
			failed++
		case e.ref != nil && (st.CrossingProperties != e.ref[i].CrossingProperties ||
			st.SnapshotBytes != e.ref[i].SnapshotBytes || st.Supervertices != e.ref[i].Supervertices):
			e.cfg.Logf("offline %s: round is not a repeat of the warm-up round", name)
			failed++
		}
		if hold != nil {
			*hold = append(*hold, out)
		} else {
			out.Release()
		}
	}
	return rd, failed
}

func runOfflineWindow(cfg Config) (*Report, error) {
	rep := &Report{Workload: wlOffline}
	env, err := setupOffline(cfg, "window")
	if err != nil {
		return nil, err
	}
	defer env.Close()

	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	var walls []float64
	var last offlineRound
	var held []*OfflineOutput
	for time.Now().Before(deadline) {
		for _, o := range held {
			o.Release()
		}
		held = held[:0]
		rd, failed := env.round(&held)
		rep.Attempted++
		if failed > 0 {
			rep.Failed++
			continue
		}
		walls = append(walls, rd.wallS*1e3)
		last = rd
	}
	seconds := time.Since(start).Seconds()
	heap := heapLiveMB()
	for _, o := range held {
		o.Release()
	}
	rep.Correct = rep.Failed == 0 && len(walls) > 0
	if len(walls) == 0 {
		return rep, fmt.Errorf("offline: no round passed its checks")
	}

	// A window holds some tens of rounds: no percentile above the median
	// has ten samples beyond it, so both tail slots hold the median.
	w := window{
		setupS: env.setupS, correct: len(walls), seconds: seconds,
		lat: sortedLatencies(walls), tails: tails{0.5, 0.5}, heapMB: heap,
	}
	lat := w.lat
	var cross int
	var snapBytes int64
	var triples int
	for _, st := range last.stages {
		cross += st.CrossingProperties
		snapBytes += st.SnapshotBytes
		triples += st.Triples
	}
	e2e := w.e2e()
	e2e["crossing_properties"] = float64(cross)
	e2e["ieq_share"] = safeDiv(float64(last.ieq), float64(last.queries))
	e2e["snapshot_bytes_per_triple"] = safeDiv(float64(snapBytes), float64(triples))
	if rep.E2E, err = finish(e2e, cfg.EndToEnd); err != nil {
		return nil, err
	}

	env.describe(rep)
	rep.notef("window %.2fs, one client: %d rounds, %d failed; offline_s median %.4f min %.4f max %.4f (every latency slot holds the median: no tail has %d rounds beyond it)",
		seconds, rep.Attempted, rep.Failed, lat.p(0.5)/1e3, lat[0]/1e3, lat[len(lat)-1]/1e3, minBeyond)
	return rep, nil
}

func (e *offlineEnv) describe(rep *Report) {
	for i, name := range offlineDatasets {
		rep.notef("dataset %s seed %d: %d triples, digest %s; |L_cross| %d, %d supervertices, imbalance %.3f, snapshots %d bytes",
			name, e.cfg.Seed, e.triples[i], e.digests[i], e.ref[i].CrossingProperties, e.ref[i].Supervertices, e.ref[i].Imbalance, e.ref[i].SnapshotBytes)
	}
}

// runOfflineTraced is one round with its stage timings reported. The
// pipeline's stages are timed around public calls in every round, so the
// traced round is the same code as a timed one.
func runOfflineTraced(cfg Config) (*Report, error) {
	rep := &Report{Workload: wlOffline}
	env, err := setupOffline(cfg, "traced")
	if err != nil {
		return nil, err
	}
	defer env.Close()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	rd, failed := env.round(nil)
	runtime.ReadMemStats(&mem1)
	rep.Attempted, rep.Failed = 1, failed
	rep.Correct = failed == 0
	if len(rd.stages) != len(offlineDatasets) {
		return rep, fmt.Errorf("offline: traced round did not complete")
	}

	L := map[string]float64{}
	var parts, open float64
	for i, st := range rd.stages {
		sfx := "." + map[string]string{"DBpedia": "dbpedia", "LUBM": "lubm"}[offlineDatasets[i]]
		L["ntriples.ingest_s"+sfx] = st.IngestS
		L["core.select_s"+sfx] = st.SelectS
		L["core.coarsen_s"+sfx] = st.CoarsenS
		L["metis.kway_s"+sfx] = st.KWayS
		L["partition.layout_s"+sfx] = st.LayoutS
		L["dataio.save_snapshots_s"+sfx] = st.SaveS
		L["core.crossing_properties"+sfx] = float64(st.CrossingProperties)
		L["core.supervertices"+sfx] = float64(st.Supervertices)
		open += st.OpenS
		parts += st.IngestS + st.SelectS + st.CoarsenS + st.KWayS + st.LayoutS + st.SaveS + st.OpenS
	}
	L["store.open_s"] = open
	L["ledger.sum_ratio"] = safeDiv(parts, rd.wallS)
	L["alloc_kb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024
	// Stage clocks are the only instrumentation and run in every round.
	warm := 0.0
	for _, st := range env.ref {
		warm += st.WallS
	}
	L["trace.overhead_ratio"] = safeDiv(rd.wallS, warm)
	if rep.Layers, err = finish(L, cfg.PerLayer); err != nil {
		return nil, err
	}
	env.describe(rep)
	rep.notef("traced round %.4f s, warm-up round %.4f s", rd.wallS, warm)
	return rep, nil
}
