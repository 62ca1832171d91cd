// Command mpc-server is the high-throughput HTTP/SPARQL serving frontend:
// it loads a graph, partitions it, builds a cluster (in-process sites by
// default; with -sites, real mpc-site processes serving the snapshots
// mpc-partition -export-snapshots wrote for the same input, -k, -seed and
// -strategy — checked at connect time), and serves concurrent
// queries through the internal/serve scheduler — bounded worker pool,
// admission control with fast 429 rejection, plan reuse, and an optional
// digest-keyed result cache.
//
// Endpoints:
//
//	GET  /query?q=SELECT...&limit=N[&digest=1]   execute a SPARQL query (also POST with the query as body)
//	POST /update                      apply a JSON batch of triple inserts/deletes
//	GET  /healthz                     liveness probe
//	POST /admin/repart                force one repartition cycle now (MPC strategy only)
//	GET  /debug/drift                 partitioning drift report (MPC strategy only)
//	GET  /debug/repart                repartitioner status: checks, runs, last migration stats
//	GET  /debug/metrics               internal/obs counters, gauges, histogram quantiles
//	GET  /debug/pprof/...             standard profiling handlers
//
// A /query response is JSON: the result rows (up to limit), the total row
// count, the executability class, and per-stage timings. With digest=1 it
// also carries a canonical result digest (oracle.Canonicalize/Digest —
// equal digests mean bit-identical result sets); the digest sorts the
// whole result, so it is computed only on request. Overload surfaces as HTTP 429 with a Retry-After
// derived from the observed median query latency; a closed client
// connection cancels the query all the way down to the per-site RPCs.
//
// A /update request body is a JSON array of operations:
//
//	[{"insert":true,"s":"<s>","p":"<p>","o":"<o>"}, {"insert":false,...}]
//
// The batch commits through serve.Scheduler.Apply — coordinator graph,
// layout, and every site move first, then cached plans and results are
// invalidated, and only then does the 200 response (the ack) go out, so a
// client that saw the ack can never read a pre-write cached answer.
//
// With -repart set, a background repartitioner (internal/repart) polls
// the drift report at that interval and, when the configured policy
// triggers, recomputes the MPC layout on a snapshot and live-migrates the
// sites to it — reads keep flowing, caches are invalidated at the atomic
// cutover. POST /admin/repart forces one cycle regardless of policy.
//
// Usage:
//
//	mpc-server -in lubm.nt -k 4 -strategy MPC -listen :8080
//	mpc-server -in lubm.nt -sites :7070,:7071 -workers 32 -cache-mb 128
//	mpc-server -in lubm.nt -k 4 -repart 30s -repart-growth 1.25
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/dataio"
	"mpc/internal/obs"
	"mpc/internal/oracle"
	"mpc/internal/partition"
	"mpc/internal/qcache"
	"mpc/internal/rdf"
	"mpc/internal/repart"
	"mpc/internal/serve"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/transport"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	in := flag.String("in", "", "input N-Triples file (required)")
	k := flag.Int("k", 4, "number of sites")
	epsilon := flag.Float64("epsilon", 0.1, "maximum imbalance ratio ε")
	strategy := flag.String("strategy", "MPC", "MPC, Subject_Hash, METIS, or VP")
	seed := flag.Int64("seed", 1, "seed for randomized phases")
	semijoin := flag.Bool("semijoin", false, "enable the distributed semijoin reduction")
	sites := flag.String("sites", "", "comma-separated mpc-site addresses (each serving its -snapshot of this layout); when set, queries run against these processes (their count overrides -k)")
	workers := flag.Int("workers", 8, "concurrent query executions")
	queue := flag.Int("queue", 64, "admission queue depth; a full queue rejects with 429")
	cacheMB := flag.Int("cache-mb", 64, "result cache budget in MiB (0 disables the cache)")
	repartEvery := flag.Duration("repart", 0, "background repartitioner poll interval (0 disables the loop; /admin/repart still works for MPC)")
	repartCap := flag.Int("repart-cap", 1, "repartition when this many partitions violate the balance cap (0 disables)")
	repartGrowth := flag.Float64("repart-growth", 1.5, "repartition when |E^c| exceeds this multiple of its baseline (0 disables)")
	repartWCC := flag.Float64("repart-wcc", 0, "repartition when the max property-WCC exceeds this multiple of |V|/k (0 disables)")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	pol := repart.Policy{MaxCapViolations: *repartCap, CrossGrowthRatio: *repartGrowth, MaxWCCSkew: *repartWCC}
	if err := run(*listen, *in, *k, *epsilon, *strategy, *seed, *semijoin, *sites, *workers, *queue, *cacheMB,
		*repartEvery, pol); err != nil {
		fmt.Fprintln(os.Stderr, "mpc-server:", err)
		os.Exit(1)
	}
}

func run(listen, in string, k int, epsilon float64, strategy string, seed int64,
	semijoin bool, sites string, workers, queue, cacheMB int,
	repartEvery time.Duration, pol repart.Policy) error {

	reg := obs.NewRegistry()
	g, err := dataio.LoadFile(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %s\n", g.Stats())

	var addrs []string
	if sites != "" {
		for _, a := range strings.Split(sites, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return fmt.Errorf("-sites given but no addresses parsed")
		}
		k = len(addrs)
	}

	c, closeSites, err := buildCluster(g, k, epsilon, strategy, seed, semijoin, addrs, reg)
	if err != nil {
		return err
	}
	defer closeSites()

	var cache *qcache.Cache
	if cacheMB > 0 {
		cache = qcache.New(qcache.Options{MaxBytes: int64(cacheMB) << 20, Obs: reg})
	}
	sched := serve.New(c, serve.Options{
		Workers:    workers,
		QueueDepth: queue,
		Cache:      cache,
		Obs:        reg,
	})
	defer sched.Close()

	// The repartitioner exists for any MPC (vertex-disjoint, drift-
	// monitored) cluster so /admin/repart can always force a cycle; the
	// background poll loop only spins when -repart is set.
	var rp *repart.Repartitioner
	if strategy == "MPC" {
		rp = repart.New(c, repart.Options{
			Policy:    pol,
			Interval:  repartEvery,
			Epsilon:   epsilon,
			Seed:      seed,
			Workers:   workers,
			OnCutover: sched.Invalidate,
			Obs:       reg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if repartEvery > 0 {
			loopCtx, stopLoop := context.WithCancel(context.Background())
			defer stopLoop()
			go rp.Run(loopCtx)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/query", queryHandler(g, sched, reg))
	mux.Handle("/update", updateHandler(sched))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/admin/repart", func(w http.ResponseWriter, r *http.Request) {
		if rp == nil {
			http.Error(w, "repartitioning requires the MPC strategy", http.StatusNotFound)
			return
		}
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST to force a repartition cycle", http.StatusMethodNotAllowed)
			return
		}
		stats, err := rp.Repartition(r.Context(), "manual (/admin/repart)")
		if errors.Is(err, repart.ErrInProgress) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(stats)
	})
	mux.HandleFunc("/debug/repart", func(w http.ResponseWriter, _ *http.Request) {
		if rp == nil {
			http.Error(w, "repartitioning requires the MPC strategy", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rp.Status())
	})
	mux.HandleFunc("/debug/drift", func(w http.ResponseWriter, _ *http.Request) {
		rep, ok := c.DriftReport()
		if !ok {
			http.Error(w, "drift monitoring requires an MPC partitioning layout", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.Handle("/debug/", reg.Handler())

	srv := &http.Server{Addr: listen, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serving on %s (%d workers, queue %d, cache %d MiB, %d sites, strategy %s)\n",
		listen, workers, queue, cacheMB, k, strategy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "received %v, draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// buildCluster partitions g with the named strategy and assembles the
// cluster over it: in-process stores, or — given site addresses — clients
// of mpc-site processes, verified to serve exactly this layout. The
// returned function releases the clients.
func buildCluster(g *rdf.Graph, k int, epsilon float64, strategy string, seed int64,
	semijoin bool, addrs []string, reg *obs.Registry) (*cluster.Cluster, func(), error) {
	opts := partition.Options{K: k, Epsilon: epsilon, Seed: seed}
	cfg := cluster.Config{Semijoin: semijoin, Obs: reg, BalanceEpsilon: epsilon}
	var layout partition.SiteLayout
	var crossing sparql.CrossingTest
	switch strategy {
	case "MPC":
		p, err := (core.MPC{}).Partition(g, opts)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "MPC partitioning: %s\n", p.Summary())
		layout, crossing = p, p.CrossingTest()
	case "Subject_Hash":
		p, err := (partition.SubjectHash{}).Partition(g, opts)
		if err != nil {
			return nil, nil, err
		}
		layout = p // no crossing test: the plain star-only baseline
	case "METIS":
		p, err := (partition.MinEdgeCut{}).Partition(g, opts)
		if err != nil {
			return nil, nil, err
		}
		layout = p // no crossing test: the plain star-only baseline
	case "VP":
		l, err := (partition.VP{}).Partition(g, opts)
		if err != nil {
			return nil, nil, err
		}
		layout = l
	default:
		return nil, nil, fmt.Errorf("unknown strategy %q", strategy)
	}

	if len(addrs) == 0 {
		c, err := cluster.New(layout, crossing, cfg)
		return c, func() {}, err
	}
	clients, err := transport.Connect(addrs, transport.ClientOptions{Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	if err := transport.Verify(clients, layout); err != nil {
		transport.CloseAll(clients)
		return nil, nil, err
	}
	c, err := cluster.NewWithSites(layout, crossing, cfg, transport.Sites(clients))
	if err != nil {
		transport.CloseAll(clients)
		return nil, nil, err
	}
	return c, func() { transport.CloseAll(clients) }, nil
}

// queryResponse is the JSON shape of one /query answer.
type queryResponse struct {
	Query       string     `json:"query"`
	Class       string     `json:"class"`
	Independent bool       `json:"independent"`
	CacheHit    bool       `json:"cache_hit"`
	RowCount    int        `json:"row_count"`
	Digest      string     `json:"digest,omitempty"` // only with digest=1
	Vars        []string   `json:"vars"`
	Rows        [][]string `json:"rows,omitempty"`
	Truncated   bool       `json:"truncated,omitempty"`
	TotalNS     int64      `json:"total_ns"`
	DecompNS    int64      `json:"decomp_ns"`
	LocalNS     int64      `json:"local_ns"`
	JoinNS      int64      `json:"join_ns"`
}

// retryAfterSeconds derives the Retry-After hint for 429 responses from
// the observed median query latency: with W workers and a queue of depth Q
// all full, a newcomer waits roughly (Q/W+1)·p50 for a slot, so the median
// is the natural unit. The value is clamped to [1,30] seconds — 1s when
// the server is fast or has no history yet, 30s so a pathological tail
// never tells clients to go away for minutes.
func retryAfterSeconds(reg *obs.Registry) int {
	p50 := reg.Histogram("serve.total_ns").Quantile(0.50)
	secs := int(time.Duration(p50).Round(time.Second) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// updateHandler serves POST /update: decode the op batch, commit it
// through the scheduler (which invalidates caches before returning), and
// report the apply stats.
func updateHandler(sched *serve.Scheduler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST a JSON array of ops", http.StatusMethodNotAllowed)
			return
		}
		var ops []rdf.Op
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&ops); err != nil {
			http.Error(w, "bad update body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(ops) == 0 {
			http.Error(w, "empty update batch", http.StatusBadRequest)
			return
		}
		stats, err := sched.Apply(r.Context(), ops)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Inserted int `json:"inserted"`
			Deleted  int `json:"deleted"`
			NotFound int `json:"not_found"`
		}{stats.Inserted, stats.Deleted, stats.NotFound})
	})
}

// queryHandler serves /query: parse, schedule, render.
func queryHandler(g *rdf.Graph, sched *serve.Scheduler, reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query().Get("q")
		if qs == "" && r.Method == http.MethodPost {
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			qs = string(body)
		}
		if strings.TrimSpace(qs) == "" {
			http.Error(w, "missing query: pass ?q= or POST the query text", http.StatusBadRequest)
			return
		}
		q, err := sparql.Parse(qs)
		if err != nil {
			http.Error(w, "parse error: "+err.Error(), http.StatusBadRequest)
			return
		}
		limit := 10
		if ls := r.URL.Query().Get("limit"); ls != "" {
			if limit, err = strconv.Atoi(ls); err != nil || limit < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
		}

		resp, err := sched.Do(r.Context(), q)
		switch {
		case errors.Is(err, serve.ErrOverloaded):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(reg)))
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case errors.Is(err, context.Canceled):
			return // client went away; nothing to write
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}

		res := resp.Result
		out := queryResponse{
			Query:       q.String(),
			Class:       res.Stats.Class.String(),
			Independent: res.Stats.Independent,
			CacheHit:    resp.CacheHit,
			RowCount:    res.Table.Len(),
			Vars:        res.Table.Vars,
			TotalNS:     res.Stats.Total().Nanoseconds(),
			DecompNS:    res.Stats.DecompTime.Nanoseconds(),
			LocalNS:     res.Stats.LocalTime.Nanoseconds(),
			JoinNS:      res.Stats.JoinTime.Nanoseconds(),
		}
		if r.URL.Query().Get("digest") == "1" {
			out.Digest = fmt.Sprintf("%016x", oracle.Canonicalize(res.Table).Digest())
		}
		if out.Vars == nil {
			out.Vars = []string{}
		}
		n := res.Table.Len()
		if limit > 0 && n > limit {
			n, out.Truncated = limit, true
		}
		for i := 0; i < n; i++ {
			row := make([]string, len(res.Table.Vars))
			for j := range res.Table.Vars {
				switch {
				case res.Table.At(i, j) == store.NullID:
					// Unbound OPTIONAL variables are the null sentinel,
					// not a dictionary ID — never resolve them.
					row[j] = "∅"
				case res.Table.Kinds[j] == store.KindProperty:
					row[j] = g.Properties.String(res.Table.At(i, j))
				default:
					row[j] = g.Vertices.String(res.Table.At(i, j))
				}
			}
			out.Rows = append(out.Rows, row)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}
