package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mpc/internal/dsf"
	"mpc/internal/partition"
	"mpc/internal/rdf"
)

// Live updates. The coordinator owns the write path: it resolves a raw
// batch against the shared dictionaries exactly once, applies it to its
// graph, folds the resulting slot trace into the layout (vertex assignment,
// crossing counters), and ships each site its share as an UpdateBatch: the
// dictionary delta, plus the ops whose triple that site stores under the
// layout's placement rule (both endpoints' sites for a crossing edge, the
// property's site under VP). A site is a store — nothing at a site mirrors
// the whole graph, so ops a site does not store never travel to it.
//
// Placement of new data never moves old data. A vertex first seen by an
// insert is assigned to the least-loaded partition; a property first seen
// by an insert is hashed to its VP site by the same name hash the initial
// layout used. Re-partitioning is an offline decision — the drift monitor
// (DriftReport) says when it is due.

// UpdateBatch is one site's share of a committed write batch. Ops are
// slot-trace-derived: every delete in it matched a live triple on the
// coordinator's graph, so a delete the site's store cannot find means the
// site is behind the coordinator.
type UpdateBatch struct {
	// Seq is the coordinator's batch sequence number, strictly increasing
	// per cluster. Sites use it to make replay idempotent: re-applying the
	// last batch returns the cached result instead of double-mutating.
	Seq uint64
	// Delta pins the term→ID assignment of terms this batch interned.
	Delta rdf.DictDelta
	// Ops is the part of the batch's mutation trace the receiving site
	// stores, in trace order.
	Ops []rdf.ResolvedUpdate
}

// SiteUpdateResult reports what one site's store did with a batch.
type SiteUpdateResult struct {
	Stats rdf.ApplyStats
}

// ErrSiteBehind is wrapped by Apply's error when a site's store could not
// find a triple the coordinator's trace says it holds: the site has missed
// or lost earlier writes and must be re-opened from a fresh snapshot.
var ErrSiteBehind = errors.New("cluster: site is behind the coordinator")

// SiteUpdater is the write half of a site: Site implementations that also
// implement SiteUpdater accept committed update batches. The in-process
// localSite and the transport client both do.
type SiteUpdater interface {
	ApplyUpdate(ctx context.Context, batch UpdateBatch) (SiteUpdateResult, error)
}

// ApplyUpdate implements SiteUpdater for in-process sites. Sites built by
// New share the coordinator's graph, which has already absorbed the delta;
// sites wrapped over independently opened stores (SiteForStore around a
// mapped block snapshot) have a private dictionary-only graph that must
// learn the batch's new terms, or constants referencing them would never
// compile at this site. Delta application is idempotent — on a shared graph
// it verifies the existing assignment and changes nothing.
func (s localSite) ApplyUpdate(ctx context.Context, batch UpdateBatch) (SiteUpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return SiteUpdateResult{}, err
	}
	if err := batch.Delta.Apply(s.st.Graph()); err != nil {
		return SiteUpdateResult{}, err
	}
	return SiteUpdateResult{Stats: s.st.ApplyResolved(batch.Ops)}, nil
}

// Apply commits a raw update batch to the whole cluster: resolve against
// the shared dictionaries, mutate the coordinator graph, maintain the
// layout, and fan the batch out to every site. It returns the
// coordinator-side stats (NotFound counts deletes that matched no live
// triple). Writers are serialized; queries running concurrently see either
// the old or the new state, never a torn one.
//
// A site error leaves the coordinator's state committed and the failing
// site behind; the error names the site so the caller can quarantine it or
// re-open it from a fresh snapshot. A site that applied its batch but
// could not find a triple the trace deletes was behind already: that is
// reported the same way, wrapping ErrSiteBehind. Acknowledge a write to the
// outside world only after Apply returns and dependent caches are
// invalidated.
func (c *Cluster) Apply(ctx context.Context, ops []rdf.Op) (rdf.ApplyStats, error) {
	// Lock order: commitMu → stateMu (see the field docs in cluster.go).
	// Resolution — dictionary interning and delete-by-value lookups, the
	// string-heavy part of a commit — runs under commitMu alone, so
	// concurrent readers are not blocked by it: commitMu excludes other
	// writers and migrations, and readers never mutate the graph, so
	// resolving against the live graph here is race-free. The section
	// under stateMu.Lock is what must be atomic for readers: the slot
	// mutations, the layout counters, and the site fanout (a query
	// observing some sites updated and others not could join rows from
	// two different states — exactly the torn read the lock exists to
	// prevent).
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	g := c.layout.Graph()
	resolved, delta, notFound := g.ResolveUpdates(ops)
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	trace, stats := g.ApplyResolvedTrace(resolved)
	stats.NotFound += notFound
	return stats, c.applyTraceLocked(ctx, delta, trace)
}

// ApplyShared folds an externally applied graph mutation into this
// cluster. It is the path for several clusters sharing one graph (the
// differential oracle runs every strategy over the same data): resolve and
// apply the batch to the graph once — rdf.Graph.ResolveUpdates +
// ApplyResolvedTrace — then hand the same delta and trace to each
// cluster's ApplyShared. The cluster's layout and site stores catch up;
// the graph itself is not touched again.
func (c *Cluster) ApplyShared(ctx context.Context, delta rdf.DictDelta, trace []rdf.SlotOp) error {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.applyTraceLocked(ctx, delta, trace)
}

// applyTraceLocked maintains the layout, routes each trace op to the sites
// that store its triple, fans the per-site batches out, and bumps the
// plan-invalidating version. Caller holds stateMu.
func (c *Cluster) applyTraceLocked(ctx context.Context, delta rdf.DictDelta, trace []rdf.SlotOp) error {
	var vd *partition.Partitioning
	var route func(rdf.Triple) (int, int) // the one or two sites storing a triple; -1 = none
	switch l := c.layout.(type) {
	case *partition.Partitioning:
		l.ApplyTrace(trace)
		vd, route = l, l.TripleSites
	case *partition.VPLayout:
		l.ApplyTrace(trace)
		route = func(t rdf.Triple) (int, int) { return int(l.SiteOf(t.P)), -1 }
	default:
		return fmt.Errorf("cluster: layout %T does not support live updates", c.layout)
	}
	c.version++
	c.updateSeq++
	c.driftAfterTrace(vd, trace)
	if len(trace) == 0 && delta.Empty() {
		return nil
	}

	siteOps := make([][]rdf.ResolvedUpdate, len(c.sites))
	for _, op := range trace {
		ru := rdf.ResolvedUpdate{Insert: op.Insert, T: op.T}
		s1, s2 := route(op.T)
		siteOps[s1] = append(siteOps[s1], ru)
		if s2 >= 0 {
			siteOps[s2] = append(siteOps[s2], ru)
		}
	}

	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	apply := func(i int) {
		defer wg.Done()
		up, ok := c.sites[i].(SiteUpdater)
		var err error
		if !ok {
			err = fmt.Errorf("%T does not support updates", c.sites[i])
		} else {
			var res SiteUpdateResult
			res, err = up.ApplyUpdate(ctx, UpdateBatch{Seq: c.updateSeq, Delta: delta, Ops: siteOps[i]})
			if err == nil && res.Stats.NotFound > 0 {
				err = fmt.Errorf("%w: %d deleted triples it should hold were not in its store",
					ErrSiteBehind, res.Stats.NotFound)
			}
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: update batch %d at site %d: %w", c.updateSeq, i, err)
			}
			mu.Unlock()
		}
	}
	for i := range c.sites {
		// A new term must reach every site's dictionaries; without one, a
		// site with no ops has nothing to do.
		if len(siteOps[i]) == 0 && delta.Empty() {
			continue
		}
		wg.Add(1)
		go apply(i)
	}
	wg.Wait()
	return firstErr
}

// Version returns the cluster's state version: it increments on every
// committed update batch. Plans record the version they were built at and
// ExecutePlan transparently replans when it has moved — callers caching
// plans (or results) can also compare versions themselves.
func (c *Cluster) Version() uint64 {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	return c.version
}

// driftAfterTrace updates the drift monitor after a committed trace and
// publishes the cheap eager gauges. Vertex-disjoint layouts only.
func (c *Cluster) driftAfterTrace(p *partition.Partitioning, trace []rdf.SlotOp) {
	if p == nil {
		return
	}
	if c.driftInc == nil {
		// Seed the incremental property-WCC tracker from the live graph
		// once, on the first committed batch; afterwards it follows the
		// traces at O(α) per insert and one per-property rebuild per
		// deleted property. The graph has already absorbed this batch, so
		// the seed scan covers it — the trace is not replayed on top.
		c.driftInc = dsf.NewIncremental()
		g := p.Graph()
		for i, t := range g.Triples() {
			if g.TripleLive(int32(i)) {
				c.driftInc.Insert(int32(t.P), int32(t.S), int32(t.O))
			}
		}
	} else {
		for _, op := range trace {
			if op.Insert {
				c.driftInc.Insert(int32(op.T.P), int32(op.T.S), int32(op.T.O))
			} else {
				c.driftInc.Delete(int32(op.T.P), int32(op.T.S), int32(op.T.O))
			}
		}
	}
	if c.cfg.Obs != nil {
		rep := c.driftReportLocked(p, false)
		c.cfg.Obs.Gauge("drift.crossing_edges").Set(int64(rep.CrossingEdges))
		c.cfg.Obs.Gauge("drift.crossing_properties").Set(int64(rep.CrossingProperties))
		c.cfg.Obs.Gauge("drift.cap_violations").Set(int64(rep.CapViolations))
	}
}

// DriftReport describes how far live updates have pushed a vertex-disjoint
// partitioning away from its offline quality guarantees: the Definition
// 4.1 balance cap, and the crossing-edge/property counts the offline
// partitioner minimized. A report with CapViolations > 0 or CrossingEdges
// well above CrossingEdgesBase is the signal to re-partition offline.
type DriftReport struct {
	// Epsilon is the balance slack the report judges against
	// (Config.BalanceEpsilon).
	Epsilon float64
	// Cap is the Definition 4.1 vertex cap (1+ε)·|V|/k at the current |V|.
	Cap int
	// PartSizes is |V_i| per partition.
	PartSizes []int
	// CapViolations counts partitions with |V_i| > Cap.
	CapViolations int
	// CrossingEdges is the live |E^c|; CrossingEdgesBase is its value when
	// the monitor was seeded (the offline partitioner's result). A rising
	// gap means inserts keep landing across partition boundaries.
	CrossingEdges     int
	CrossingEdgesBase int
	// CrossingProperties is the live |L_cross|.
	CrossingProperties int
	// MaxPropertyWCC is max_p Cost({p}) over live properties (Definition
	// 4.2 via the incremental WCC tracker): the largest component any
	// single property contributes to a future re-partitioning. Zero until
	// the monitor is seeded by the first committed batch.
	MaxPropertyWCC int
}

// DriftReport returns the current drift assessment. ok is false when the
// layout is not a vertex-disjoint partitioning (VP has no vertex balance
// to drift).
func (c *Cluster) DriftReport() (rep DriftReport, ok bool) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	p, isVD := c.layout.(*partition.Partitioning)
	if !isVD {
		return DriftReport{}, false
	}
	rep = c.driftReportLocked(p, true)
	if c.cfg.Obs != nil {
		c.cfg.Obs.Gauge("drift.max_property_wcc").Set(int64(rep.MaxPropertyWCC))
	}
	return rep, true
}

// driftReportLocked builds the report. withWCC additionally scans every
// property's component size — that can rebuild dirty forests, so the
// per-batch gauge path skips it and only DriftReport pays.
func (c *Cluster) driftReportLocked(p *partition.Partitioning, withWCC bool) DriftReport {
	sizes := p.PartSizes()
	rep := DriftReport{
		Epsilon:            c.cfg.BalanceEpsilon,
		PartSizes:          append([]int(nil), sizes...),
		CrossingEdges:      p.NumCrossingEdges(),
		CrossingEdgesBase:  c.driftBaseCross,
		CrossingProperties: p.NumCrossingProperties(),
	}
	nv := len(p.Assign)
	rep.Cap = int((1 + c.cfg.BalanceEpsilon) * float64(nv) / float64(p.K()))
	if rep.Cap < 1 {
		rep.Cap = 1
	}
	for _, s := range sizes {
		if s > rep.Cap {
			rep.CapViolations++
		}
	}
	if withWCC && c.driftInc != nil {
		g := p.Graph()
		for pid := 0; pid < g.NumProperties(); pid++ {
			if mc := int(c.driftInc.MaxComponent(int32(pid))); mc > rep.MaxPropertyWCC {
				rep.MaxPropertyWCC = mc
			}
		}
	}
	return rep
}
