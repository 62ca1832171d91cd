package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/datagen"
	"mpc/internal/obs"
	"mpc/internal/oracle"
	"mpc/internal/qcache"
	"mpc/internal/serve"
	"mpc/internal/workload"
)

// Throughput experiment knobs. The workload is Zipf-skewed over the LUBM
// query set — the serving scenario from "Query Workload-based RDF Graph
// Fragmentation and Allocation" (PAPERS.md): a small set of hot queries
// dominates, which is exactly what the digest-keyed result cache converts
// into O(1) lookups.
const (
	throughputClients = 16  // closed-loop client goroutines
	throughputSerialN = 300 // serial baseline requests
	throughputClosedN = 1600
	throughputOpenN   = 600
	throughputZipfS   = 1.2 // Zipf exponent of query popularity
	cacheSamples      = 30  // cold/hot latency samples per side
)

// ThroughputPhase is one load phase of the throughput experiment: its
// offered and completed request counts, sustained QPS, and the latency
// quantiles of successful requests (from an internal/obs histogram).
type ThroughputPhase struct {
	Mode     string `json:"mode"` // serial | closed-loop | open-loop
	Clients  int    `json:"clients"`
	Requests int64  `json:"requests"`
	// Completed counts successful answers; Rejected counts admission-control
	// fast failures (serve.ErrOverloaded, HTTP 429 in mpc-server); Errors is
	// everything else.
	Completed  int64   `json:"completed"`
	Rejected   int64   `json:"rejected"`
	Errors     int64   `json:"errors"`
	DurationNS int64   `json:"duration_ns"`
	QPS        float64 `json:"qps"`
	// TargetQPS is the offered open-loop arrival rate (0 for closed loops,
	// where clients issue the next request only after the previous answer).
	TargetQPS    float64 `json:"target_qps,omitempty"`
	MeanNS       float64 `json:"mean_ns"`
	P50NS        int64   `json:"p50_ns"`
	P95NS        int64   `json:"p95_ns"`
	P99NS        int64   `json:"p99_ns"`
	CacheHits    int64   `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Identical reports that every completed answer's canonical digest
	// (oracle.Canonicalize/Digest) matched the serial in-process oracle
	// answer for the same query — the correctness gate of concurrency.
	Identical bool `json:"identical"`
}

// ThroughputCache is the cold-versus-hot comparison of one hot query: the
// same query served by full execution (cache invalidated before every
// sample) and from the result cache, with the digest equality that proves
// both paths return the identical result.
type ThroughputCache struct {
	Query      string  `json:"query"`
	Samples    int     `json:"samples"`
	ColdP50NS  int64   `json:"cold_p50_ns"`
	ColdP95NS  int64   `json:"cold_p95_ns"`
	HotP50NS   int64   `json:"hot_p50_ns"`
	HotP95NS   int64   `json:"hot_p95_ns"`
	P50Speedup float64 `json:"p50_speedup"`
	Digest     string  `json:"digest"`
	Identical  bool    `json:"identical"`
}

// ThroughputResult is the full concurrent-serving experiment written to
// BENCH_throughput.json.
type ThroughputResult struct {
	Triples         int             `json:"triples"`
	K               int             `json:"k"`
	Epsilon         float64         `json:"epsilon"`
	Seed            int64           `json:"seed"`
	NumCPU          int             `json:"num_cpu"`
	Dataset         string          `json:"dataset"`
	Strategy        string          `json:"strategy"`
	Sites           []string        `json:"sites"`
	DistinctQueries int             `json:"distinct_queries"`
	ZipfS           float64         `json:"zipf_s"`
	Serial          ThroughputPhase `json:"serial"`
	Closed          ThroughputPhase `json:"closed_loop"`
	Open            ThroughputPhase `json:"open_loop"`
	// ClosedOverSerial is the headline number: sustained closed-loop QPS
	// (scheduler + cache over the pipelined transport) divided by the
	// serial one-query-at-a-time QPS on the same remote cluster.
	ClosedOverSerial float64         `json:"closed_qps_over_serial"`
	Cache            ThroughputCache `json:"cache"`
}

// RunThroughput measures concurrent serving end to end: an MPC-partitioned
// LUBM graph behind real loopback TCP sites,
// a Zipf-skewed workload, and three load phases over the same remote
// cluster — a serial one-query-at-a-time baseline, 16 closed-loop clients
// through the serve.Scheduler with the result cache, and an open-loop phase
// offered more load than the no-cache pool sustains, to exercise admission
// control. Every completed answer is digest-verified against the serial
// in-process oracle answer.
func RunThroughput(cfg Config) (*ThroughputResult, error) {
	cfg = cfg.withDefaults()
	res := &ThroughputResult{
		Triples:  cfg.Triples,
		K:        cfg.K,
		Epsilon:  cfg.Epsilon,
		Seed:     cfg.Seed,
		NumCPU:   runtime.NumCPU(),
		Dataset:  "LUBM",
		Strategy: StratMPC,
		ZipfS:    throughputZipfS,
	}

	g := datagen.LUBM{}.Generate(cfg.Triples, cfg.Seed)
	queries := workload.LUBMQueries(g, cfg.Seed)
	res.DistinctQueries = len(queries)

	built, err := buildClusters(g, cfg, map[string]bool{StratMPC: true})
	if err != nil {
		return nil, err
	}
	bc := built[0]

	// Golden digests: the serial in-process oracle answer per query.
	golden := make([]uint64, len(queries))
	for i, nq := range queries {
		out, err := bc.c.Execute(nq.Query)
		if err != nil {
			return nil, fmt.Errorf("throughput golden %s: %w", nq.Name, err)
		}
		golden[i] = oracle.Canonicalize(out.Table).Digest()
	}

	// The same stores behind loopback servers: the queries travel over the
	// pipelined TCP transport.
	remote, addrs, closeSites, err := loopbackCluster(bc, cluster.Config{}, nil)
	if err != nil {
		return nil, err
	}
	defer closeSites()
	res.Sites = addrs

	// One shared Zipf-skewed request sequence; the serial baseline replays
	// its prefix so every phase sees the same popularity profile.
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, throughputZipfS, 1, uint64(len(queries)-1))
	seq := make([]int, throughputClosedN)
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}

	res.Serial, err = runSerialPhase(remote, queries, golden, seq[:throughputSerialN])
	if err != nil {
		return nil, err
	}

	res.Closed, res.Cache, err = runClosedPhase(remote, queries, golden, seq)
	if err != nil {
		return nil, err
	}
	if res.Serial.QPS > 0 {
		res.ClosedOverSerial = res.Closed.QPS / res.Serial.QPS
	}

	// Offer the open loop twice the serial rate: without a cache the pool
	// sustains roughly the serial rate on one CPU, so half the offered load
	// must be shed — by fast rejection, not by queueing.
	res.Open, err = runOpenPhase(remote, queries, golden, seq[:throughputOpenN], 2*res.Serial.QPS)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// reply is one completed answer held for post-hoc digest verification, so
// the canonicalization cost never pollutes the timed window.
type reply struct {
	qi  int
	res *cluster.Result
}

// verifyReplies digest-checks completed answers against the golden serial
// digests, deduplicating by result pointer (cache hits share one table).
func verifyReplies(replies []reply, golden []uint64) bool {
	seen := make(map[*cluster.Result]uint64)
	for _, r := range replies {
		d, ok := seen[r.res]
		if !ok {
			d = oracle.Canonicalize(r.res.Table).Digest()
			seen[r.res] = d
		}
		if d != golden[r.qi] {
			return false
		}
	}
	return true
}

// phaseFromHistogram fills the latency fields of a phase from a histogram.
func phaseFromHistogram(p *ThroughputPhase, h *obs.Histogram, elapsed time.Duration) {
	s := h.Summary()
	p.DurationNS = elapsed.Nanoseconds()
	p.MeanNS = s.Mean
	p.P50NS, p.P95NS, p.P99NS = s.P50, s.P95, s.P99
	if elapsed > 0 {
		p.QPS = float64(p.Completed) / elapsed.Seconds()
	}
}

// runSerialPhase is the baseline: one query at a time, straight through the
// remote cluster, no scheduler and no cache.
func runSerialPhase(remote *cluster.Cluster, queries []workload.NamedQuery,
	golden []uint64, seq []int) (ThroughputPhase, error) {

	phase := ThroughputPhase{Mode: "serial", Clients: 1, Requests: int64(len(seq))}
	var h obs.Histogram
	replies := make([]reply, 0, len(seq))
	t0 := time.Now()
	for _, qi := range seq {
		r0 := time.Now()
		out, err := remote.Execute(queries[qi].Query)
		if err != nil {
			return phase, fmt.Errorf("serial %s: %w", queries[qi].Name, err)
		}
		h.ObserveSince(r0)
		replies = append(replies, reply{qi: qi, res: out})
	}
	phase.Completed = int64(len(seq))
	phaseFromHistogram(&phase, &h, time.Since(t0))
	phase.Identical = verifyReplies(replies, golden)
	return phase, nil
}

// runClosedPhase drives throughputClients closed-loop clients through a
// scheduler with the result cache, then measures the cold/hot latency split
// of the hottest query on the same warm scheduler.
func runClosedPhase(remote *cluster.Cluster, queries []workload.NamedQuery,
	golden []uint64, seq []int) (ThroughputPhase, ThroughputCache, error) {

	phase := ThroughputPhase{Mode: "closed-loop", Clients: throughputClients, Requests: int64(len(seq))}
	var cmp ThroughputCache

	reg := obs.NewRegistry()
	cache := qcache.New(qcache.Options{MaxBytes: 64 << 20, Obs: reg})
	sched := serve.New(remote, serve.Options{
		Workers:    throughputClients,
		QueueDepth: 2 * throughputClients,
		Cache:      cache,
		Obs:        reg,
	})
	defer sched.Close()

	var h obs.Histogram
	var next atomic.Int64
	var firstErr atomic.Value
	perClient := make([][]reply, throughputClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < throughputClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				qi := seq[i]
				r0 := time.Now()
				resp, err := sched.Do(context.Background(), queries[qi].Query)
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("closed-loop %s: %w", queries[qi].Name, err))
					return
				}
				h.ObserveSince(r0)
				perClient[w] = append(perClient[w], reply{qi: qi, res: resp.Result})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if err, _ := firstErr.Load().(error); err != nil {
		return phase, cmp, err
	}

	var replies []reply
	for _, rs := range perClient {
		replies = append(replies, rs...)
	}
	phase.Completed = int64(len(replies))
	phaseFromHistogram(&phase, &h, elapsed)
	phase.Identical = verifyReplies(replies, golden)
	snap := reg.Snapshot()
	phase.CacheHits = snap.Counters["qcache.hits"]
	if phase.Completed > 0 {
		phase.CacheHitRate = float64(phase.CacheHits) / float64(phase.Completed)
	}

	cmp, err := runCachePhase(sched, cache, queries, golden, seq)
	return phase, cmp, err
}

// runCachePhase measures the hottest query cold (cache invalidated before
// every sample, full execution) and hot (served from the cache), asserting
// both paths return digest-identical answers.
func runCachePhase(sched *serve.Scheduler, cache *qcache.Cache,
	queries []workload.NamedQuery, golden []uint64, seq []int) (ThroughputCache, error) {

	// The hottest query of the sequence.
	counts := map[int]int{}
	hot := seq[0]
	for _, qi := range seq {
		if counts[qi]++; counts[qi] > counts[hot] {
			hot = qi
		}
	}
	q := queries[hot].Query
	cmp := ThroughputCache{
		Query:     queries[hot].Name,
		Samples:   cacheSamples,
		Digest:    fmt.Sprintf("%016x", golden[hot]),
		Identical: true,
	}

	var cold, hotH obs.Histogram
	for i := 0; i < cacheSamples; i++ {
		cache.Invalidate(q)
		t0 := time.Now()
		resp, err := sched.Do(context.Background(), q)
		if err != nil {
			return cmp, fmt.Errorf("cache cold: %w", err)
		}
		cold.ObserveSince(t0)
		if resp.CacheHit || oracle.Canonicalize(resp.Result.Table).Digest() != golden[hot] {
			cmp.Identical = false
		}
	}
	for i := 0; i < cacheSamples; i++ {
		t0 := time.Now()
		resp, err := sched.Do(context.Background(), q)
		if err != nil {
			return cmp, fmt.Errorf("cache hot: %w", err)
		}
		hotH.ObserveSince(t0)
		if !resp.CacheHit || oracle.Canonicalize(resp.Result.Table).Digest() != golden[hot] {
			cmp.Identical = false
		}
	}
	cs, hs := cold.Summary(), hotH.Summary()
	cmp.ColdP50NS, cmp.ColdP95NS = cs.P50, cs.P95
	cmp.HotP50NS, cmp.HotP95NS = hs.P50, hs.P95
	if hs.P50 > 0 {
		cmp.P50Speedup = float64(cs.P50) / float64(hs.P50)
	}
	return cmp, nil
}

// runOpenPhase offers requests at a fixed arrival rate to a cache-less
// scheduler: arrivals do not wait for answers, so when the offered rate
// exceeds what the pool sustains, the queue fills and admission control
// must shed the excess immediately.
func runOpenPhase(remote *cluster.Cluster, queries []workload.NamedQuery,
	golden []uint64, seq []int, targetQPS float64) (ThroughputPhase, error) {

	if targetQPS <= 0 {
		targetQPS = 100
	}
	phase := ThroughputPhase{
		Mode:      "open-loop",
		Clients:   throughputClients,
		Requests:  int64(len(seq)),
		TargetQPS: targetQPS,
	}
	reg := obs.NewRegistry()
	sched := serve.New(remote, serve.Options{
		Workers:    throughputClients,
		QueueDepth: throughputClients,
		Obs:        reg,
	})
	defer sched.Close()

	interval := time.Duration(float64(time.Second) / targetQPS)
	var h obs.Histogram
	var rejected, errored atomic.Int64
	var mu sync.Mutex
	var replies []reply
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, qi := range seq {
		// Pace arrivals against the phase clock, not per-request sleeps, so
		// slow sends do not silently lower the offered rate.
		if d := t0.Add(time.Duration(i) * interval).Sub(time.Now()); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			r0 := time.Now()
			resp, err := sched.Do(context.Background(), queries[qi].Query)
			switch {
			case err == serve.ErrOverloaded:
				rejected.Add(1)
			case err != nil:
				errored.Add(1)
			default:
				h.ObserveSince(r0)
				mu.Lock()
				replies = append(replies, reply{qi: qi, res: resp.Result})
				mu.Unlock()
			}
		}(qi)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	phase.Completed = int64(len(replies))
	phase.Rejected = rejected.Load()
	phase.Errors = errored.Load()
	phaseFromHistogram(&phase, &h, elapsed)
	phase.Identical = verifyReplies(replies, golden)
	return phase, nil
}

// WriteThroughputJSON writes the result as indented JSON to path.
func WriteThroughputJSON(path string, res *ThroughputResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderThroughput writes the human-readable throughput tables.
func RenderThroughput(w io.Writer, res *ThroughputResult) {
	row := func(p ThroughputPhase) []string {
		return []string{
			p.Mode, fmt.Sprint(p.Clients), fmt.Sprint(p.Requests),
			fmt.Sprint(p.Completed), fmt.Sprint(p.Rejected),
			fmt.Sprintf("%.0f", p.QPS),
			fmt.Sprintf("%.1f", float64(p.P50NS)/1e3),
			fmt.Sprintf("%.1f", float64(p.P95NS)/1e3),
			fmt.Sprintf("%.1f", float64(p.P99NS)/1e3),
			fmt.Sprintf("%.2f", p.CacheHitRate),
			fmt.Sprint(p.Identical),
		}
	}
	title := fmt.Sprintf("Throughput: %s/%s, %d triples, k=%d, %d CPUs, zipf s=%.1f over %d queries",
		res.Dataset, res.Strategy, res.Triples, res.K, res.NumCPU, res.ZipfS, res.DistinctQueries)
	WriteTable(w, title,
		[]string{"mode", "clients", "offered", "done", "rejected", "qps",
			"p50_us", "p95_us", "p99_us", "hit_rate", "identical"},
		[][]string{row(res.Serial), row(res.Closed), row(res.Open)})
	fmt.Fprintf(w, "closed-loop QPS / serial QPS: %.1fx\n", res.ClosedOverSerial)

	c := res.Cache
	WriteTable(w, "Result cache: hottest query cold vs hot",
		[]string{"query", "samples", "cold_p50_us", "hot_p50_us", "speedup", "digest", "identical"},
		[][]string{{
			c.Query, fmt.Sprint(c.Samples),
			fmt.Sprintf("%.1f", float64(c.ColdP50NS)/1e3),
			fmt.Sprintf("%.1f", float64(c.HotP50NS)/1e3),
			fmt.Sprintf("%.1fx", c.P50Speedup),
			c.Digest, fmt.Sprint(c.Identical),
		}})
}
