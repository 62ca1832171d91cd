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
	"mpc/internal/rdf"
	"mpc/internal/repart"
	"mpc/internal/workload"
)

// Repart experiment knobs. The drift mixes boundary-crossing inserts over
// existing vertices (what erodes |L_cross|) with fresh leaves piled onto a
// few hot subjects (what erodes the Definition 4.1 balance), until the
// default-style repartitioning policy triggers.
const (
	repartMaxBatches = 400
	repartCrossPerOp = 60 // random existing-vertex inserts per batch
	// Fresh leaves exercise dictionary growth during drift, but sparingly:
	// new vertices are placed least-loaded, so every one of them RAISES the
	// Definition 4.1 cap and would wash out the imbalance the experiment
	// wants the migration to repair.
	repartHotPerOp     = 5
	repartHotSubjects  = 4
	repartQueryClients = 8 // concurrent query goroutines during the migration
	repartGrowthRatio  = 1.3
)

// RepartPhase is the query-side view of the migration window: every request
// issued while vertices were moving, with latency quantiles and the two
// failure counters that must stay zero.
type RepartPhase struct {
	Clients   int   `json:"clients"`
	Completed int64 `json:"completed"`
	// Failed counts queries that returned an error during the migration;
	// Mismatched counts answers whose canonical digest differed from the
	// pre-migration golden answer. Live migration promises both stay 0.
	Failed     int64 `json:"failed"`
	Mismatched int64 `json:"mismatched"`
	P50NS      int64 `json:"p50_ns"`
	P95NS      int64 `json:"p95_ns"`
	P99NS      int64 `json:"p99_ns"`
}

// RepartResult is the online-adaptive-repartitioning experiment written to
// BENCH_repart.json: how far the cluster drifted, what the policy said, what
// the migration moved and shipped, and proof that queries never noticed.
type RepartResult struct {
	Triples int      `json:"triples"`
	K       int      `json:"k"`
	Epsilon float64  `json:"epsilon"`
	Seed    int64    `json:"seed"`
	NumCPU  int      `json:"num_cpu"`
	Dataset string   `json:"dataset"`
	Sites   []string `json:"sites"`

	DriftBatches int    `json:"drift_batches"`
	DriftOps     int    `json:"drift_ops"`
	Reason       string `json:"reason"`

	// Layout quality on either side of the cutover. CrossProps is the
	// paper's objective |L_cross|; the repartition must shrink it back.
	// CapViolations counts partitions above the Definition 4.1 cap and
	// must be zero after.
	CrossPropsBefore    int   `json:"cross_props_before"`
	CrossPropsAfter     int   `json:"cross_props_after"`
	CrossEdgesBefore    int   `json:"cross_edges_before"`
	CrossEdgesAfter     int   `json:"cross_edges_after"`
	CapViolationsBefore int   `json:"cap_violations_before"`
	CapViolationsAfter  int   `json:"cap_violations_after"`
	Cap                 int   `json:"cap"`
	PartSizesBefore     []int `json:"part_sizes_before"`
	PartSizesAfter      []int `json:"part_sizes_after"`

	Moved          int   `json:"moved_vertices"`
	AddOps         int   `json:"add_ops"`
	RemoveOps      int   `json:"remove_ops"`
	MigrateBytes   int64 `json:"migrate_bytes"`
	PlanNS         int64 `json:"plan_ns"`
	ShipNS         int64 `json:"ship_ns"`
	CutoverPauseNS int64 `json:"cutover_pause_ns"`
	CleanupNS      int64 `json:"cleanup_ns"`
	TotalNS        int64 `json:"total_ns"`

	DistinctQueries int         `json:"distinct_queries"`
	During          RepartPhase `json:"during_migration"`
	// Identical reports that every query's canonical digest matched its
	// pre-migration golden answer when re-run after the cutover.
	Identical bool `json:"identical"`
}

// RunRepart measures online adaptive repartitioning end to end on real
// loopback TCP sites: an MPC-partitioned LUBM cluster is
// drifted with live updates until the repartitioning policy triggers, then
// repartitioned by the background repartitioner while concurrent clients
// keep querying. The experiment records the drift, the policy's reason, the
// migration's cost (vertices moved, ops and bytes shipped, cutover pause),
// the query latency quantiles during the migration window, and the two
// correctness gates: zero failed queries and bit-identical answers before,
// during, and after the cutover.
func RunRepart(cfg Config) (*RepartResult, error) {
	cfg = cfg.withDefaults()
	res := &RepartResult{
		Triples: cfg.Triples,
		K:       cfg.K,
		Epsilon: cfg.Epsilon,
		Seed:    cfg.Seed,
		NumCPU:  runtime.NumCPU(),
		Dataset: "LUBM",
	}
	ctx := context.Background()

	g := datagen.LUBM{}.Generate(cfg.Triples, cfg.Seed)
	queries := workload.LUBMQueries(g, cfg.Seed)
	res.DistinctQueries = len(queries)

	built, err := buildClusters(g, cfg, map[string]bool{StratMPC: true})
	if err != nil {
		return nil, err
	}
	bc := built[0]

	reg := obs.NewRegistry()
	remote, addrs, closeSites, err := loopbackCluster(bc, cluster.Config{BalanceEpsilon: cfg.Epsilon}, reg)
	if err != nil {
		return nil, err
	}
	defer closeSites()
	res.Sites = addrs

	// Phase 1: drift through the live-update path until the crossing-edge
	// growth criterion fires. The full policy (cap + growth) decides the
	// recorded reason: a layout that carries a Definition 4.1 violation —
	// the k-way phase's approximate balance can leave one even at install
	// time — reports that first, and the migration must clear it.
	policy := repart.Policy{MaxCapViolations: 1, CrossGrowthRatio: repartGrowthRatio}
	growth := repart.Policy{CrossGrowthRatio: repartGrowthRatio}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vname := func(id rdf.VertexID) string { return g.Vertices.String(uint32(id)) }
	pname := func(id rdf.PropertyID) string { return g.Properties.String(uint32(id)) }
	hot := make([]string, repartHotSubjects)
	for i := range hot {
		hot[i] = vname(rdf.VertexID(rng.Intn(g.NumVertices())))
	}
	reason := ""
	for b := 0; b < repartMaxBatches; b++ {
		ops := make([]rdf.Op, 0, repartCrossPerOp+repartHotPerOp)
		for i := 0; i < repartCrossPerOp; i++ {
			ops = append(ops, rdf.Op{Insert: true,
				S: vname(rdf.VertexID(rng.Intn(g.NumVertices()))),
				P: pname(rdf.PropertyID(rng.Intn(g.NumProperties()))),
				O: vname(rdf.VertexID(rng.Intn(g.NumVertices())))})
		}
		for i := 0; i < repartHotPerOp; i++ {
			ops = append(ops, rdf.Op{Insert: true,
				S: hot[rng.Intn(len(hot))],
				P: fmt.Sprintf("u:hot%d", rng.Intn(repartHotSubjects)),
				O: fmt.Sprintf("u:leaf%d-%d", b, i)})
		}
		if _, err := remote.Apply(ctx, ops); err != nil {
			return nil, fmt.Errorf("repart: drift batch %d: %w", b, err)
		}
		res.DriftBatches++
		res.DriftOps += len(ops)
		rep, ok := remote.DriftReport()
		if !ok {
			return nil, fmt.Errorf("repart: no drift report")
		}
		if due, _ := growth.Due(rep); due {
			_, reason = policy.Due(rep)
			res.PartSizesBefore = append([]int(nil), rep.PartSizes...)
			break
		}
	}
	if reason == "" {
		return nil, fmt.Errorf("repart: policy never triggered within %d drift batches", repartMaxBatches)
	}
	res.Reason = reason

	// Phase 2: quiesced golden answers on the drifted cluster. Updates stop
	// here, so answers must stay bit-identical through the whole migration.
	golden := make([]uint64, len(queries))
	for i, nq := range queries {
		out, err := remote.ExecuteCtx(ctx, nq.Query)
		if err != nil {
			return nil, fmt.Errorf("repart golden %s: %w", nq.Name, err)
		}
		golden[i] = oracle.Canonicalize(out.Table).Digest()
	}

	// Phase 3: concurrent query load over the migration window.
	var h obs.Histogram
	var completed, failed, mismatched atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < repartQueryClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += repartQueryClients {
				select {
				case <-done:
					return
				default:
				}
				qi := i % len(queries)
				t0 := time.Now()
				out, err := remote.ExecuteCtx(ctx, queries[qi].Query)
				if err != nil {
					failed.Add(1)
					continue
				}
				h.ObserveSince(t0)
				completed.Add(1)
				if oracle.Canonicalize(out.Table).Digest() != golden[qi] {
					mismatched.Add(1)
				}
			}
		}(w)
	}

	migBefore := reg.Snapshot().Counters["transport.migrate_bytes"]
	rp := repart.New(remote, repart.Options{
		Policy:  policy,
		Epsilon: cfg.Epsilon,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Obs:     reg,
	})
	t0 := time.Now()
	stats, err := rp.Repartition(ctx, reason)
	total := time.Since(t0)
	close(done)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("repart: migration: %w", err)
	}

	res.CrossPropsBefore = stats.CrossingPropsBefore
	res.CrossPropsAfter = stats.CrossingPropsAfter
	res.CrossEdgesBefore = stats.CrossingEdgesBefore
	res.CrossEdgesAfter = stats.CrossingEdgesAfter
	res.CapViolationsBefore = stats.CapViolationsBefore
	res.CapViolationsAfter = stats.CapViolationsAfter
	res.Moved = stats.Moved
	res.AddOps = stats.AddOps
	res.RemoveOps = stats.RemoveOps
	res.PlanNS = stats.PlanTime.Nanoseconds()
	res.ShipNS = stats.ShipTime.Nanoseconds()
	res.CutoverPauseNS = stats.CutoverPause.Nanoseconds()
	res.CleanupNS = stats.CleanupTime.Nanoseconds()
	res.TotalNS = total.Nanoseconds()
	res.MigrateBytes = reg.Snapshot().Counters["transport.migrate_bytes"] - migBefore

	s := h.Summary()
	res.During = RepartPhase{
		Clients:    repartQueryClients,
		Completed:  completed.Load(),
		Failed:     failed.Load(),
		Mismatched: mismatched.Load(),
		P50NS:      s.P50,
		P95NS:      s.P95,
		P99NS:      s.P99,
	}

	// Phase 4: the post-cutover layout and one more full verification pass.
	rep, ok := remote.DriftReport()
	if !ok {
		return nil, fmt.Errorf("repart: no post-migration drift report")
	}
	res.Cap = rep.Cap
	res.PartSizesAfter = append([]int(nil), rep.PartSizes...)
	res.Identical = true
	for i, nq := range queries {
		out, err := remote.ExecuteCtx(ctx, nq.Query)
		if err != nil {
			return nil, fmt.Errorf("repart post %s: %w", nq.Name, err)
		}
		if oracle.Canonicalize(out.Table).Digest() != golden[i] {
			res.Identical = false
		}
	}
	return res, nil
}

// WriteRepartJSON writes the result as indented JSON to path.
func WriteRepartJSON(path string, res *RepartResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderRepart writes the human-readable repartitioning tables.
func RenderRepart(w io.Writer, res *RepartResult) {
	title := fmt.Sprintf("Online repartitioning: LUBM/MPC, %d triples, k=%d, %d drift batches (%d ops)",
		res.Triples, res.K, res.DriftBatches, res.DriftOps)
	WriteTable(w, title,
		[]string{"metric", "before", "after"},
		[][]string{
			{"|L_cross| (crossing properties)", fmt.Sprint(res.CrossPropsBefore), fmt.Sprint(res.CrossPropsAfter)},
			{"|E^c| (crossing edges)", fmt.Sprint(res.CrossEdgesBefore), fmt.Sprint(res.CrossEdgesAfter)},
			{fmt.Sprintf("cap violations (cap %d)", res.Cap), fmt.Sprint(res.CapViolationsBefore), fmt.Sprint(res.CapViolationsAfter)},
		})
	fmt.Fprintf(w, "policy: %s\n", res.Reason)
	fmt.Fprintf(w, "migration: %d vertices moved, %d add + %d remove ops, %d bytes shipped\n",
		res.Moved, res.AddOps, res.RemoveOps, res.MigrateBytes)
	fmt.Fprintf(w, "time: plan %.1fms, ship %.1fms, cutover pause %.1fµs, cleanup %.1fms, total %.1fms\n",
		float64(res.PlanNS)/1e6, float64(res.ShipNS)/1e6, float64(res.CutoverPauseNS)/1e3,
		float64(res.CleanupNS)/1e6, float64(res.TotalNS)/1e6)

	d := res.During
	WriteTable(w, "Queries during the migration window",
		[]string{"clients", "completed", "failed", "mismatched", "p50_us", "p95_us", "p99_us"},
		[][]string{{
			fmt.Sprint(d.Clients), fmt.Sprint(d.Completed), fmt.Sprint(d.Failed), fmt.Sprint(d.Mismatched),
			fmt.Sprintf("%.1f", float64(d.P50NS)/1e3),
			fmt.Sprintf("%.1f", float64(d.P95NS)/1e3),
			fmt.Sprintf("%.1f", float64(d.P99NS)/1e3),
		}})
	fmt.Fprintf(w, "post-migration answers identical to pre-migration golden: %v\n", res.Identical)
}
