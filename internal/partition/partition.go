// Package partition defines the vertex-disjoint partitioning model of the
// MPC paper (Definitions 3.3 and 3.4) and the baseline partitioners the
// paper compares against: subject hashing (SHAPE/AdPart style), minimum
// edge-cut (METIS style, via internal/metis), and vertical partitioning
// (edge-disjoint, property hashing).
//
// A Partitioning records, for every vertex, its home partition, and derives
// the crossing edges E^c, the crossing property set L_cross, the internal
// property set L_in, and the per-site triple layout with 1-hop replication
// of crossing edges.
package partition

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"mpc/internal/obs"
	"mpc/internal/rdf"
)

// Options configures a partitioner run.
type Options struct {
	// K is the number of partitions (sites).
	K int
	// Epsilon is the maximum imbalance ratio: each |V_i| must be at most
	// (1+Epsilon)*|V|/K. Partitioners treat it as a soft target when the
	// graph structure makes it unachievable.
	Epsilon float64
	// Seed drives any randomized choices, for reproducibility.
	Seed int64
	// Workers bounds the concurrency of the parallel offline phases
	// (internal property selection, coarsening, k-way partitioning):
	// 0 means runtime.NumCPU(), 1 forces the serial path. The produced
	// partitioning is bit-for-bit identical for every value — parallel
	// phases merge per-shard results in shard order and keep the serial
	// cost/edges/ID tie-breaks.
	Workers int
	// Obs receives per-stage offline timers ("offline.*_ns" histograms)
	// and result gauges when non-nil. Instrumentation never changes the
	// produced partitioning.
	Obs *obs.Registry
}

// ObserveStage records one offline stage's wall time as the histogram
// "offline.<stage>_ns". No-op without a registry.
func (o Options) ObserveStage(stage string, d time.Duration) {
	if o.Obs == nil {
		return
	}
	o.Obs.Histogram("offline." + stage + "_ns").ObserveDuration(d)
}

// Validate reports an error for nonsensical options.
func (o Options) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("partition: K must be >= 1, got %d", o.K)
	}
	if o.Epsilon < 0 {
		return fmt.Errorf("partition: Epsilon must be >= 0, got %g", o.Epsilon)
	}
	if o.Workers < 0 {
		return fmt.Errorf("partition: Workers must be >= 0, got %d", o.Workers)
	}
	return nil
}

// Cap returns the vertex-count cap (1+ε)·|V|/k for a graph with n vertices.
func (o Options) Cap(n int) int {
	c := int((1 + o.Epsilon) * float64(n) / float64(o.K))
	if c < 1 {
		c = 1
	}
	return c
}

// Partitioner produces a vertex-disjoint partitioning of an RDF graph.
type Partitioner interface {
	// Name identifies the strategy (used in benchmark tables).
	Name() string
	// Partition partitions g; g must be frozen.
	Partition(g *rdf.Graph, opts Options) (*Partitioning, error)
}

// SiteLayout is the interface the distributed-execution simulator consumes:
// which triples are stored at each site. Vertex-disjoint partitionings
// replicate crossing edges at both endpoints' sites; edge-disjoint (VP)
// layouts assign each triple to exactly one site.
type SiteLayout interface {
	NumSites() int
	// SiteTriples returns the indices (into the graph's triple list) of the
	// triples stored at site i, including replicas.
	SiteTriples(i int) []int32
	// Graph returns the underlying full graph.
	Graph() *rdf.Graph
}

// Partitioning is a vertex-disjoint partitioning F = {F_1..F_k} with 1-hop
// replication of crossing edges (Definition 3.3).
//
// A partitioning stays consistent under live graph mutation: ApplyTrace
// maintains the vertex assignment (new vertices go to the least-loaded
// partition), the partition sizes, and the crossing counters eagerly, and
// marks the derived site layout (siteTriples, crossingEdges, replica
// counts) stale for lazy rebuild — those lists are only read at cluster
// construction and in reports, never per query or per update.
type Partitioning struct {
	g *rdf.Graph
	k int

	// Assign maps each vertex to its home partition in [0, k).
	Assign []int32

	// crossCount[p] counts live crossing edges labeled p; the crossing
	// property set L_cross is {p : crossCount[p] > 0}. Counts (not booleans)
	// are what make deletion exact: a property leaves L_cross only when its
	// last crossing edge goes.
	crossCount    []int32
	numCrossProps int
	numCrossEdges int
	partSizes     []int // |V_i|

	layoutDirty   bool
	crossingEdges []int32   // triple slots whose endpoints live apart
	siteTriples   [][]int32 // per site: internal triples + crossing replicas
	replicaCounts []int     // |V_i^e| per site
}

// FromAssignment derives a full Partitioning from a vertex→partition map.
// It computes crossing edges, crossing/internal properties, per-site triple
// layouts with replication, and partition sizes. assign must have length
// |V| with values in [0, k).
func FromAssignment(g *rdf.Graph, k int, assign []int32) (*Partitioning, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("partition: graph must be frozen")
	}
	if len(assign) != g.NumVertices() {
		return nil, fmt.Errorf("partition: assignment length %d != |V| %d", len(assign), g.NumVertices())
	}
	p := &Partitioning{
		g:      g,
		k:      k,
		Assign: assign,
	}
	p.partSizes = make([]int, k)
	for v, part := range assign {
		if part < 0 || int(part) >= k {
			return nil, fmt.Errorf("partition: vertex %d assigned to invalid partition %d", v, part)
		}
		p.partSizes[part]++
	}
	p.rebuildLayout()
	return p, nil
}

// rebuildLayout derives the crossing counters and the per-site layout from
// the live triples under the current assignment. FromAssignment calls it
// once; after mutations it reruns lazily via ensureLayout.
func (p *Partitioning) rebuildLayout() {
	g, k, assign := p.g, p.k, p.Assign
	p.crossCount = make([]int32, g.NumProperties())
	p.numCrossProps, p.numCrossEdges = 0, 0
	p.crossingEdges = nil
	p.siteTriples = make([][]int32, k)
	// foreign[i] collects the foreign endpoints visible at site i (V_i^e);
	// they are sorted and deduplicated at the end, which is much cheaper
	// than per-triple hash-set inserts on crossing-heavy graphs.
	foreign := make([][]rdf.VertexID, k)
	for i, t := range g.Triples() {
		if !g.TripleLive(int32(i)) {
			continue
		}
		ps, po := assign[t.S], assign[t.O]
		if ps == po {
			p.siteTriples[ps] = append(p.siteTriples[ps], int32(i))
			continue
		}
		p.crossingEdges = append(p.crossingEdges, int32(i))
		if p.crossCount[t.P] == 0 {
			p.numCrossProps++
		}
		p.crossCount[t.P]++
		p.numCrossEdges++
		// Replicate the crossing edge at both endpoints' sites.
		p.siteTriples[ps] = append(p.siteTriples[ps], int32(i))
		p.siteTriples[po] = append(p.siteTriples[po], int32(i))
		foreign[ps] = append(foreign[ps], t.O)
		foreign[po] = append(foreign[po], t.S)
	}
	p.replicaCounts = make([]int, k)
	for i, vs := range foreign {
		slices.Sort(vs)
		distinct := 0
		for j, v := range vs {
			if j == 0 || v != vs[j-1] {
				distinct++
			}
		}
		p.replicaCounts[i] = distinct
	}
	p.layoutDirty = false
}

func (p *Partitioning) ensureLayout() {
	if p.layoutDirty {
		// Preserve the eagerly maintained crossing counters; the rebuild
		// recomputes them to identical values.
		p.rebuildLayout()
	}
}

// Graph returns the partitioned graph.
func (p *Partitioning) Graph() *rdf.Graph { return p.g }

// K returns the number of partitions.
func (p *Partitioning) K() int { return p.k }

// NumSites implements SiteLayout.
func (p *Partitioning) NumSites() int { return p.k }

// SiteTriples implements SiteLayout: internal edges of site i plus replicas
// of crossing edges incident to it.
func (p *Partitioning) SiteTriples(i int) []int32 {
	p.ensureLayout()
	return p.siteTriples[i]
}

// CrossingEdges returns the triple slots of all crossing edges (E^c).
func (p *Partitioning) CrossingEdges() []int32 {
	p.ensureLayout()
	return p.crossingEdges
}

// NumCrossingEdges returns |E^c|. The count is maintained eagerly across
// mutations, so reading it never triggers a layout rebuild — the drift
// monitor polls it after every batch.
func (p *Partitioning) NumCrossingEdges() int { return p.numCrossEdges }

// IsCrossingProperty reports whether property pid labels any crossing edge.
// Properties interned after partitioning start internal (no crossing edge
// yet) and enter L_cross the moment an insert gives them one.
func (p *Partitioning) IsCrossingProperty(pid rdf.PropertyID) bool {
	return int(pid) < len(p.crossCount) && p.crossCount[pid] > 0
}

// CrossingTest returns IsCrossingProperty keyed by property IRI, the form
// query classification takes (it is assignable to sparql.CrossingTest). A
// property the graph does not know labels no edge, so it is not crossing.
// The test reads the live counts: an update that moves a property into
// L_cross changes its answer.
func (p *Partitioning) CrossingTest() func(prop string) bool {
	return func(prop string) bool {
		id, ok := p.g.Properties.Lookup(prop)
		return ok && p.IsCrossingProperty(rdf.PropertyID(id))
	}
}

// NumCrossingProperties returns |L_cross|.
func (p *Partitioning) NumCrossingProperties() int { return p.numCrossProps }

// CrossingProperties returns L_cross sorted by ID.
func (p *Partitioning) CrossingProperties() []rdf.PropertyID {
	out := make([]rdf.PropertyID, 0, p.numCrossProps)
	for pid, n := range p.crossCount {
		if n > 0 {
			out = append(out, rdf.PropertyID(pid))
		}
	}
	return out
}

// InternalProperties returns L_in = L − L_cross sorted by ID.
func (p *Partitioning) InternalProperties() []rdf.PropertyID {
	out := make([]rdf.PropertyID, 0, p.g.NumProperties()-p.numCrossProps)
	for pid := 0; pid < p.g.NumProperties(); pid++ {
		if pid >= len(p.crossCount) || p.crossCount[pid] == 0 {
			out = append(out, rdf.PropertyID(pid))
		}
	}
	return out
}

// PartSizes returns |V_i| for each partition.
func (p *Partitioning) PartSizes() []int { return p.partSizes }

// ReplicaCounts returns |V_i^e| for each partition.
func (p *Partitioning) ReplicaCounts() []int {
	p.ensureLayout()
	return p.replicaCounts
}

// MaxPartSize returns max_i |V_i|.
func (p *Partitioning) MaxPartSize() int {
	max := 0
	for _, s := range p.partSizes {
		if s > max {
			max = s
		}
	}
	return max
}

// Imbalance returns max_i |V_i| / (|V|/k) − 1; 0 means perfectly balanced.
func (p *Partitioning) Imbalance() float64 {
	if p.g.NumVertices() == 0 {
		return 0
	}
	ideal := float64(p.g.NumVertices()) / float64(p.k)
	return float64(p.MaxPartSize())/ideal - 1
}

// ReplicationRatio returns (Σ_i |E_i ∪ E_i^c|) / |E|: how much storage the
// layout uses relative to the unpartitioned graph.
func (p *Partitioning) ReplicationRatio() float64 {
	if p.g.NumLiveTriples() == 0 {
		return 1
	}
	p.ensureLayout()
	total := 0
	for _, st := range p.siteTriples {
		total += len(st)
	}
	return float64(total) / float64(p.g.NumLiveTriples())
}

// Summary returns a human-readable description for reports.
func (p *Partitioning) Summary() string {
	return fmt.Sprintf("k=%d |L_cross|=%d |E^c|=%d imbalance=%.3f replication=%.3f",
		p.k, p.numCrossProps, p.numCrossEdges, p.Imbalance(), p.ReplicationRatio())
}

// sortIDs sorts a property ID slice in place and returns it (test helper
// used by multiple partitioners).
func sortIDs(ids []rdf.PropertyID) []rdf.PropertyID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
