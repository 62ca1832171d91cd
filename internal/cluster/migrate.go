package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mpc/internal/partition"
	"mpc/internal/rdf"
)

// Live migration. A background repartitioner (internal/repart) recomputes
// the MPC layout offline on a snapshot of the live graph and hands the new
// assignment to ApplyMigration, which moves the cluster to it without
// stopping reads:
//
//	plan    diff the new assignment against the live layout into per-site
//	        add/remove triple lists (partition.PlanMigration)
//	ship    send every add to its target site; queries keep running under
//	        the old layout, and the extra replicas are invisible — every
//	        per-site match is a genuine full-graph match, the old
//	        placement is fully intact, and the union layer deduplicates
//	cutover O(1) swap of the assignment and eager counters under
//	        stateMu.Lock, plus a version bump so cached plans replan;
//	        this is the only moment readers wait
//	clean   delete the now-stale replicas; until they land, sites hold a
//	        superset of the new layout, invisible by the same argument
//	reseal  compact each local block store's overlay into fresh base blocks
//
// The whole sequence holds commitMu, so no update batch can interleave:
// the diff stays exact from plan to cutover, and the per-phase migration
// sequence numbers stay strictly increasing at every site.

// MigrateBatch is one phase's triple shipment to one site. Unlike
// UpdateBatch it carries no dictionary delta: migration never creates terms
// (every shipped triple is live, so its terms are interned everywhere) —
// it changes placement, not data.
type MigrateBatch struct {
	// Seq numbers migration shipments per cluster, strictly increasing,
	// independent of the update-batch sequence. Sites use it for replay
	// idempotency exactly like UpdateBatch.Seq.
	Seq uint64
	// Ops are the store mutations: inserts in the pre-cutover phase,
	// deletes in the cleanup phase.
	Ops []rdf.ResolvedUpdate
}

// SiteMigrator is the migration half of a site: Site implementations that
// also implement SiteMigrator accept migration shipments. The in-process
// localSite and the transport client both do.
type SiteMigrator interface {
	ApplyMigrate(ctx context.Context, batch MigrateBatch) (SiteUpdateResult, error)
}

// ApplyMigrate implements SiteMigrator for in-process sites: the ops go
// straight to the store. The shared coordinator graph is untouched —
// placement changed, the data did not.
func (s localSite) ApplyMigrate(ctx context.Context, batch MigrateBatch) (SiteUpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return SiteUpdateResult{}, err
	}
	return SiteUpdateResult{Stats: s.st.ApplyResolved(batch.Ops)}, nil
}

// MigrationStats reports what one ApplyMigration did.
type MigrationStats struct {
	// Moved counts vertices whose home partition changed.
	Moved int
	// AddOps / RemoveOps count triple instances shipped to / deleted from
	// sites across the two phases.
	AddOps    int
	RemoveOps int
	// Crossing counts and Definition 4.1 cap violations on either side of
	// the cutover. The property cut |L_cross| is the paper's objective —
	// the offline recompute minimizes it, and a repartition is expected to
	// shrink it back; the crossing-EDGE count is reported too but may
	// legitimately move either way (MPC trades edges for properties).
	CrossingPropsBefore int
	CrossingPropsAfter  int
	CrossingEdgesBefore int
	CrossingEdgesAfter  int
	CapViolationsBefore int
	CapViolationsAfter  int
	// Compacted counts local block stores whose overlay was resealed into
	// fresh base blocks after the cleanup phase.
	Compacted int
	// PlanTime is the diff, ShipTime the pre-cutover add phase, and
	// CleanupTime the remove phase plus compaction. CutoverPause is the
	// stateMu.Lock hold — the only interval during which readers wait.
	PlanTime     time.Duration
	ShipTime     time.Duration
	CutoverPause time.Duration
	CleanupTime  time.Duration
}

// SnapshotForRepartition returns a frozen, tombstone-free copy of the live
// graph suitable as input to the offline partitioning pipeline. It holds
// only the state read-lock: writers are excluded for the duration of the
// copy, queries keep running, and the repartitioner's (long) offline
// compute then runs on the snapshot with no cluster lock held at all.
func (c *Cluster) SnapshotForRepartition() (*rdf.Graph, error) {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	if _, ok := c.layout.(*partition.Partitioning); !ok {
		return nil, fmt.Errorf("cluster: repartitioning requires a vertex-disjoint partitioning, got %T", c.layout)
	}
	return c.layout.Graph().LiveSnapshot(), nil
}

// ApplyMigration moves the cluster to a recomputed vertex assignment
// (typically from the offline MPC pipeline over SnapshotForRepartition's
// snapshot) using the phased protocol above. newAssign may cover a prefix
// of the vertex space — vertices interned after the snapshot keep their
// current placement. onCutover, when non-nil, runs immediately after the
// atomic swap (before cleanup): the serving layer hooks its cache
// invalidation there so post-cutover acks can never surface a pre-cutover
// cached plan state.
//
// An error before the cutover leaves the old layout fully in force (any
// already-shipped replicas are invisible to queries but occupy space until
// a later migration or compaction); an error after it leaves the new
// layout in force with stale replicas pending the same way. Either way
// query results are unaffected — that is the point of the protocol.
func (c *Cluster) ApplyMigration(ctx context.Context, newAssign []int32, onCutover func()) (MigrationStats, error) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	var stats MigrationStats
	p, ok := c.layout.(*partition.Partitioning)
	if !ok {
		return stats, fmt.Errorf("cluster: migration requires a vertex-disjoint partitioning, got %T", c.layout)
	}

	// Under commitMu no writer or other migration can run, and readers
	// never mutate layout or graph, so the diff below stays exact until
	// the cutover installs it.
	start := time.Now()
	plan, err := p.PlanMigration(newAssign)
	if err != nil {
		return stats, err
	}
	stats.Moved = plan.Moved
	stats.AddOps = plan.AddOps()
	stats.RemoveOps = plan.RemoveOps()
	stats.CrossingPropsBefore = p.NumCrossingProperties()
	stats.CrossingEdgesBefore = p.NumCrossingEdges()
	stats.CapViolationsBefore = c.driftReportLocked(p, false).CapViolations
	stats.PlanTime = time.Since(start)
	if stats.Moved == 0 && stats.AddOps == 0 && stats.RemoveOps == 0 {
		stats.CrossingPropsAfter = stats.CrossingPropsBefore
		stats.CrossingEdgesAfter = stats.CrossingEdgesBefore
		stats.CapViolationsAfter = stats.CapViolationsBefore
		return stats, nil
	}

	ship := time.Now()
	if err := c.migrate(ctx, plan.SiteAdds, true); err != nil {
		return stats, fmt.Errorf("cluster: migration aborted before cutover: %w", err)
	}
	stats.ShipTime = time.Since(ship)

	cut := time.Now()
	c.stateMu.Lock()
	p.ApplyMigration(plan)
	c.version++
	// The migration restores the layout the offline partitioner chose;
	// drift is measured against it from here on.
	c.driftBaseCross = p.NumCrossingEdges()
	c.stateMu.Unlock()
	stats.CutoverPause = time.Since(cut)
	if onCutover != nil {
		onCutover()
	}

	clean := time.Now()
	err = c.migrate(ctx, plan.SiteRemoves, false)
	for _, st := range c.stores {
		if st != nil && st.Compact() {
			stats.Compacted++
		}
	}
	stats.CleanupTime = time.Since(clean)
	stats.CrossingPropsAfter = p.NumCrossingProperties()
	stats.CrossingEdgesAfter = p.NumCrossingEdges()
	stats.CapViolationsAfter = c.driftReportLocked(p, false).CapViolations
	if c.cfg.Obs != nil {
		c.cfg.Obs.Counter("migrate.runs").Add(1)
		c.cfg.Obs.Counter("migrate.moved_vertices").Add(int64(stats.Moved))
		c.cfg.Obs.Counter("migrate.shipped_ops").Add(int64(stats.AddOps + stats.RemoveOps))
		c.cfg.Obs.Histogram("migrate.cutover_ns").Observe(stats.CutoverPause.Nanoseconds())
	}
	if err != nil {
		return stats, fmt.Errorf("cluster: migration cleanup: %w", err)
	}
	return stats, nil
}

// migrate fans one phase's per-site triple lists out as MigrateBatches.
// Caller holds commitMu (which protects migrateSeq).
func (c *Cluster) migrate(ctx context.Context, siteTriples [][]rdf.Triple, insert bool) error {
	c.migrateSeq++
	seq := c.migrateSeq
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	run := func(i int, batch MigrateBatch) {
		defer wg.Done()
		mg, ok := c.sites[i].(SiteMigrator)
		var err error
		if !ok {
			err = fmt.Errorf("cluster: site %d (%T) does not support migration", i, c.sites[i])
		} else {
			_, err = mg.ApplyMigrate(ctx, batch)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: migration batch %d at site %d: %w", seq, i, err)
			}
			mu.Unlock()
		}
	}
	for i := range c.sites {
		if len(siteTriples[i]) == 0 {
			continue
		}
		ops := make([]rdf.ResolvedUpdate, len(siteTriples[i]))
		for j, t := range siteTriples[i] {
			ops[j] = rdf.ResolvedUpdate{Insert: insert, T: t}
		}
		wg.Add(1)
		go run(i, MigrateBatch{Seq: seq, Ops: ops})
	}
	wg.Wait()
	return firstErr
}
