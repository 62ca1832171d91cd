package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/dataio"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/workload"
)

// ScalePhase is one measured serving configuration of the scale
// experiment: the same MPC layout and workload, with the per-site data
// either fully heap-resident (flat) or memory-mapped from v3 block
// snapshots (block).
type ScalePhase struct {
	// LoadMS is the wall time to open all k site stores.
	LoadMS float64 `json:"load_ms"`
	// LoadHeapMB is the settled live-heap growth attributable to the site
	// stores: HeapAlloc after load (post-GC) minus the pre-load baseline
	// (post-GC). This is the number the "block ≤ 0.5× flat at load"
	// acceptance bound compares — both phases share the same coordinator
	// graph baseline, so the delta isolates what the stores themselves
	// cost.
	LoadHeapMB float64 `json:"load_heap_mb"`
	// QueryMS is the wall time of one pass over the workload.
	QueryMS float64 `json:"query_ms"`
	// Mem is the whole phase's footprint (load through last query).
	Mem MemStats `json:"mem"`
}

// ScaleResult is the flat-vs-block serving experiment behind
// BENCH_scale.json: partition once, snapshot every site, then serve the
// same workload from heap-resident stores and from mapped block
// snapshots, comparing memory at load and verifying the answers are
// bit-identical.
type ScaleResult struct {
	Dataset string  `json:"dataset"`
	Triples int     `json:"triples"`
	K       int     `json:"k"`
	Epsilon float64 `json:"epsilon"`
	Seed    int64   `json:"seed"`
	NumCPU  int     `json:"num_cpu"`
	Queries int     `json:"queries"`
	// GenerateMS/PartitionMS/SnapshotMS time the offline pipeline ahead of
	// the two serving phases; ingest streams, so they are measured under
	// the same process-wide sampler as everything else.
	GenerateMS  float64 `json:"generate_ms"`
	PartitionMS float64 `json:"partition_ms"`
	SnapshotMS  float64 `json:"snapshot_ms"`
	// SnapshotBytes is the total on-disk size of the k site snapshots.
	SnapshotBytes int64      `json:"snapshot_bytes"`
	Flat          ScalePhase `json:"flat"`
	Block         ScalePhase `json:"block"`
	// LoadHeapRatio is Block.LoadHeapMB / Flat.LoadHeapMB — the acceptance
	// criterion wants ≤ 0.5.
	LoadHeapRatio float64 `json:"load_heap_ratio"`
	// DigestsMatch is true when every query's result table was
	// bit-identical between the two phases.
	DigestsMatch bool `json:"digests_match"`
}

// RunScale measures serving the same MPC-partitioned LUBM dataset two
// ways. It generates cfg.Triples triples, partitions with MPC, writes one
// v3 block snapshot per site (dataio.SaveSiteSnapshots streams them), and
// then runs the LUBM workload through two clusters built over the same
// layout:
//
//   - flat: every site snapshot decoded back into the heap behind a flat
//     store — the pre-block serving memory profile;
//   - block: every site snapshot opened with store.OpenSnapshot, so triple
//     data stays on disk behind the mapping and the heap holds only
//     dictionaries, the block directory, and a bounded decoded-block cache.
//
// Both phases share the coordinator graph, so the per-phase LoadHeapMB
// delta isolates the stores' cost; every result table is digest-compared
// across phases.
func RunScale(cfg Config) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	gen := datagen.LUBM{}
	res := &ScaleResult{
		Dataset: gen.Name(),
		Triples: cfg.Triples,
		K:       cfg.K,
		Epsilon: cfg.Epsilon,
		Seed:    cfg.Seed,
		NumCPU:  runtime.NumCPU(),
	}

	t0 := time.Now()
	g := gen.Generate(cfg.Triples, cfg.Seed)
	res.GenerateMS = ms(time.Since(t0))

	t0 = time.Now()
	p, err := (core.MPC{}).Partition(g, cfg.opts())
	if err != nil {
		return nil, fmt.Errorf("scale: partition: %w", err)
	}
	res.PartitionMS = ms(time.Since(t0))
	crossing := p.CrossingTest()

	dir, err := os.MkdirTemp("", "mpc-scale-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 = time.Now()
	paths, err := dataio.SaveSiteSnapshots(filepath.Join(dir, "scale"), p)
	if err != nil {
		return nil, fmt.Errorf("scale: snapshot: %w", err)
	}
	res.SnapshotMS = ms(time.Since(t0))
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		res.SnapshotBytes += fi.Size()
	}

	queries := workloadFor(gen, g, cfg)
	res.Queries = len(queries)

	// Flat phase: decode every snapshot back into the heap — per-site
	// dictionaries, triple list, and flat permutation indexes all resident,
	// which is what serving looked like before block snapshots.
	openFlat := func(path string) (*store.Store, error) {
		sg, err := store.ReadSnapshotGraph(path)
		if err != nil {
			return nil, err
		}
		return store.New(sg, sg.LiveTriples()), nil
	}
	flatDigests, err := runScalePhase(&res.Flat, p, crossing, paths, queries, openFlat)
	if err != nil {
		return nil, fmt.Errorf("scale: flat phase: %w", err)
	}

	// Block phase: the same snapshots, memory-mapped.
	blockDigests, err := runScalePhase(&res.Block, p, crossing, paths, queries, store.OpenSnapshot)
	if err != nil {
		return nil, fmt.Errorf("scale: block phase: %w", err)
	}

	res.DigestsMatch = len(flatDigests) == len(blockDigests)
	for i := range flatDigests {
		if !res.DigestsMatch || flatDigests[i] != blockDigests[i] {
			res.DigestsMatch = false
			break
		}
	}
	if res.Flat.LoadHeapMB > 0 {
		res.LoadHeapRatio = res.Block.LoadHeapMB / res.Flat.LoadHeapMB
	}
	return res, nil
}

// runScalePhase opens one store per site snapshot with open, serves the
// workload through a NewWithSites cluster over them, and fills ph with the
// phase's timings and memory profile. It returns the per-query result
// digests for the cross-phase identity check.
func runScalePhase(ph *ScalePhase, layout partition.SiteLayout, crossing sparql.CrossingTest,
	paths []string, queries []workload.NamedQuery, open func(string) (*store.Store, error)) ([]string, error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	sampler := startMemSampler()

	t0 := time.Now()
	stores := make([]*store.Store, 0, len(paths))
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	sites := make([]cluster.Site, 0, len(paths))
	for _, path := range paths {
		st, err := open(path)
		if err != nil {
			return nil, err
		}
		stores = append(stores, st)
		sites = append(sites, cluster.SiteForStore(st))
	}
	c, err := cluster.NewWithSites(layout, crossing, cluster.Config{}, sites)
	if err != nil {
		return nil, err
	}
	ph.LoadMS = ms(time.Since(t0))

	runtime.GC()
	var loaded runtime.MemStats
	runtime.ReadMemStats(&loaded)
	if loaded.HeapAlloc > base.HeapAlloc {
		ph.LoadHeapMB = mib(loaded.HeapAlloc - base.HeapAlloc)
	}

	t0 = time.Now()
	digests := make([]string, len(queries))
	for i, nq := range queries {
		r, err := c.Execute(nq.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nq.Name, err)
		}
		digests[i] = tableDigest(r)
	}
	ph.QueryMS = ms(time.Since(t0))
	ph.Mem = sampler.Stop()
	return digests, nil
}

// WriteScaleJSON writes the result as indented JSON to path.
func WriteScaleJSON(path string, res *ScaleResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RenderScale writes the human-readable flat-vs-block comparison.
func RenderScale(w io.Writer, res *ScaleResult) {
	row := func(name string, ph ScalePhase) []string {
		return []string{
			name,
			fmt.Sprintf("%.1f", ph.LoadMS),
			fmt.Sprintf("%.1f", ph.LoadHeapMB),
			fmt.Sprintf("%.1f", ph.QueryMS),
			fmt.Sprintf("%.1f", ph.Mem.HeapAllocPeakMB),
			fmt.Sprintf("%.2f", ph.Mem.GCPauseTotalMS),
		}
	}
	title := fmt.Sprintf("Scale serving: %s %d triples, k=%d, snapshots %.1f MiB, load-heap ratio %.3f, digests_match=%v",
		res.Dataset, res.Triples, res.K, float64(res.SnapshotBytes)/(1<<20), res.LoadHeapRatio, res.DigestsMatch)
	WriteTable(w, title,
		[]string{"store", "load_ms", "load_heap_mb", "query_ms", "peak_heap_mb", "gc_pause_ms"},
		[][]string{row("flat", res.Flat), row("block", res.Block)})
}
