// Package core implements the paper's primary contribution: Minimum
// Property-Cut (MPC) RDF graph partitioning (Peng, Özsu, Zou, Yan, Liu —
// ICDE 2022).
//
// MPC partitioning proceeds in three phases (Sec. IV-B):
//
//  1. Select a maximal set of internal properties L_in such that the largest
//     weakly connected component of the property-induced subgraph G[L_in]
//     fits in a partition: Cost(L_in) ≤ (1+ε)·|V|/k (Definition 4.2).
//  2. Coarsen: contract every WCC of G[L_in] into a supervertex, producing a
//     much smaller weighted graph G_c whose edges are the non-internal
//     property edges between different supervertices.
//  3. Partition G_c with a min edge-cut partitioner (internal/metis) and
//     project the result back to G. By construction, no internal-property
//     edge can become a crossing edge (Theorem 2).
//
// Selecting L_in is NP-complete (Theorem 1), so this package offers three
// selectors: the paper's greedy Algorithm 1 (accelerated with rollback
// disjoint-set forests and lazy re-evaluation), the reverse-greedy variant
// of Sec. IV-E, and an exact branch-and-bound selector (the paper's
// MPC-Exact baseline) usable when |L| is small.
package core

import (
	"container/heap"
	"sort"

	"mpc/internal/dsf"
	"mpc/internal/par"
	"mpc/internal/partition"
	"mpc/internal/rdf"
)

// Selector chooses the set of internal properties L_in for a graph under a
// component-size cap.
type Selector interface {
	// SelectInternal returns L_in such that the largest WCC of G[L_in] has
	// at most cap vertices. g must be frozen.
	SelectInternal(g *rdf.Graph, cap int) []rdf.PropertyID
	// Name identifies the selector in reports.
	Name() string
}

// WorkersAware is implemented by selectors whose candidate evaluation can
// run on a worker pool. MPC.PartitionFull uses it to thread Options.Workers
// through to the selector when the selector has not already pinned a worker
// count of its own. Implementations must return identical L_in for every
// worker count.
type WorkersAware interface {
	// WithWorkers returns a copy of the selector configured for the given
	// worker count (0 = NumCPU, 1 = serial), unless the selector already
	// has an explicit non-zero worker count, which wins.
	WithWorkers(workers int) Selector
}

// GreedySelector implements Algorithm 1: repeatedly add the property p
// minimizing Cost(L_in ∪ {p}), subject to Cost ≤ cap, until no property
// fits. Two optimizations from the paper are built in:
//
//   - properties whose own induced subgraph already exceeds the cap are
//     pruned up front (e.g. rdf:type);
//   - WCCs are maintained incrementally with disjoint-set forests instead
//     of being recomputed.
//
// Additionally, candidate costs are re-evaluated lazily: since Cost is
// monotone in L_in, a stale cost is a valid lower bound, so candidates are
// kept in a min-heap and only the top is re-evaluated. Ties on cost are
// broken toward the property with more edges (internalizing more edges
// reduces |E^c|), then by ID for determinism.
//
// With Workers != 1 the initial per-property cost pass — one evaluation per
// property, the bulk of the work — runs on a worker pool, each worker on a
// fresh forest of its own, storing each cost positionally. Every later
// refresh is the serial lazy one on the committed base forest: a parallel
// refresh would need each worker's forest to mirror base, an O(|V|) copy
// per selection round that costs more than the few evaluations a round
// performs. L_in is identical for every worker count.
type GreedySelector struct {
	// Workers bounds the initial pass's concurrency: 0 means
	// runtime.NumCPU(), 1 forces the serial path. The selected set is
	// identical for every value.
	Workers int
}

// Name implements Selector.
func (GreedySelector) Name() string { return "greedy" }

// WithWorkers implements WorkersAware.
func (s GreedySelector) WithWorkers(workers int) Selector {
	if s.Workers == 0 {
		s.Workers = workers
	}
	return s
}

// candHeap is a min-heap of candidate properties ordered by (cost, -edges, id).
type candidate struct {
	prop  rdf.PropertyID
	cost  int32
	edges int32
	// epoch records the |L_in| at which cost was computed; a candidate is
	// fresh when epoch matches the current selection round.
	epoch int
}

type candHeap []candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	if h[i].edges != h[j].edges {
		return h[i].edges > h[j].edges
	}
	return h[i].prop < h[j].prop
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// SelectInternal implements Selector.
func (s GreedySelector) SelectInternal(g *rdf.Graph, cap int) []rdf.PropertyID {
	workers := par.Resolve(s.Workers)
	base := dsf.NewRollback(g.NumVertices())
	epoch := 0

	// evaluate returns Cost(L_in ∪ {p}) against the given forest, which
	// must mirror the committed base.
	evaluate := func(f *dsf.RollbackForest, p rdf.PropertyID) int32 {
		cp := f.Checkpoint()
		for _, ti := range g.PropertyTriples(p) {
			t := g.Triple(ti)
			f.Union(int32(t.S), int32(t.O))
		}
		cost := f.MaxComponentSize()
		f.Rollback(cp)
		return cost
	}

	// Initial pass: cost of each property alone, computed positionally and
	// heapified in property order; prune those over cap. L_in is still
	// empty, so worker 0 evaluates on base and every other worker on a
	// fresh forest of singletons.
	forests := make([]*dsf.RollbackForest, workers)
	forests[0] = base
	costs := make([]int32, g.NumProperties())
	par.ForEachWorker(workers, g.NumProperties(), func(w, p int) {
		if forests[w] == nil {
			forests[w] = dsf.NewRollback(g.NumVertices())
		}
		costs[p] = evaluate(forests[w], rdf.PropertyID(p))
	})
	h := make(candHeap, 0, g.NumProperties())
	for p := 0; p < g.NumProperties(); p++ {
		if int(costs[p]) <= cap {
			h = append(h, candidate{prop: rdf.PropertyID(p), cost: costs[p], edges: int32(g.PropertyEdgeCount(rdf.PropertyID(p))), epoch: 0})
		}
	}
	heap.Init(&h)

	// Lazy refresh: re-evaluate only the stale top and reinsert it.
	var lin []rdf.PropertyID
	for h.Len() > 0 {
		top := h[0]
		if top.epoch == epoch {
			// Fresh minimum: select it.
			heap.Pop(&h)
			for _, ti := range g.PropertyTriples(top.prop) {
				t := g.Triple(ti)
				base.Union(int32(t.S), int32(t.O))
			}
			base.Commit()
			lin = append(lin, top.prop)
			epoch++
			continue
		}
		cost := evaluate(base, top.prop)
		if int(cost) > cap {
			heap.Pop(&h) // can never fit again (monotonicity)
			continue
		}
		h[0].cost = cost
		h[0].epoch = epoch
		heap.Fix(&h, 0)
	}
	sort.Slice(lin, func(i, j int) bool { return lin[i] < lin[j] })
	return lin
}

// ReverseGreedySelector implements the second heuristic of Sec. IV-E: start
// with every property internal and repeatedly remove the property giving
// the maximum cost reduction until the cap is met. It suits graphs (like
// DBpedia or LGD) where almost all properties end up internal.
//
// Removal candidates are restricted to properties with edges inside the
// current largest component (removing any other property cannot reduce the
// cost); among those, only the top MaxCandidates by edge count are
// evaluated exactly, which bounds the per-step work on graphs with very
// many properties.
//
// Candidate removals are independent full-forest rebuilds, so they run on
// the worker pool: each worker rebuilds candidates into its own forest and
// keeps the forest of its locally best candidate; worker results are then
// merged by the serial (cost, candidate-order) tie-break. The winning
// candidate's forest becomes the next iteration's state, saving the O(E)
// from-scratch rebuild the seed implementation performed every step.
type ReverseGreedySelector struct {
	// MaxCandidates bounds how many removal candidates are evaluated per
	// step; 0 means 32.
	MaxCandidates int
	// Workers bounds evaluation concurrency: 0 means runtime.NumCPU(),
	// 1 forces the serial path. The selected set is identical for every
	// value.
	Workers int
}

// Name implements Selector.
func (ReverseGreedySelector) Name() string { return "reverse-greedy" }

// WithWorkers implements WorkersAware.
func (s ReverseGreedySelector) WithWorkers(workers int) Selector {
	if s.Workers == 0 {
		s.Workers = workers
	}
	return s
}

// removalCand is one reverse-greedy removal candidate: a property and its
// number of edges touching the current largest component.
type removalCand struct {
	prop  rdf.PropertyID
	edges int
}

// inComponentEdges counts the triples of property p with at least one
// endpoint in the component identified by root, using precomputed vertex
// roots. An edge belongs to a component when either endpoint does: when
// the forest excludes some of p's own edges the subject and object can
// root in different components, and counting only the subject undercounts
// (see TestInComponentEdgesCountsEitherEndpoint).
func inComponentEdges(g *rdf.Graph, roots []int32, p rdf.PropertyID, root int32) int {
	cnt := 0
	for _, ti := range g.PropertyTriples(p) {
		t := g.Triple(ti)
		if roots[t.S] == root || roots[t.O] == root {
			cnt++
		}
	}
	return cnt
}

// removalCandidates ranks the non-removed properties with edges touching
// the largest component (rooted at bigRoot) by descending in-component
// edge count, property ID breaking ties, truncated to maxCand. The
// per-property counting runs on the worker pool with positional results.
func removalCandidates(g *rdf.Graph, roots []int32, bigRoot int32, removed []bool, maxCand, workers int) []removalCand {
	counts := make([]int, g.NumProperties())
	par.ForEach(workers, g.NumProperties(), func(p int) {
		if !removed[p] {
			counts[p] = inComponentEdges(g, roots, rdf.PropertyID(p), bigRoot)
		}
	})
	var cands []removalCand
	for p, cnt := range counts {
		if cnt > 0 {
			cands = append(cands, removalCand{rdf.PropertyID(p), cnt})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].edges != cands[j].edges {
			return cands[i].edges > cands[j].edges
		}
		return cands[i].prop < cands[j].prop
	})
	if len(cands) > maxCand {
		cands = cands[:maxCand]
	}
	return cands
}

// SelectInternal implements Selector.
func (s ReverseGreedySelector) SelectInternal(g *rdf.Graph, cap int) []rdf.PropertyID {
	maxCand := s.MaxCandidates
	if maxCand <= 0 {
		maxCand = 32
	}
	workers := par.Resolve(s.Workers)
	removed := make([]bool, g.NumProperties())
	nRemoved := 0

	// build returns the forest of every non-removed property, optionally
	// excluding one more property (excluded < 0 excludes nothing).
	build := func(excluded int) *dsf.Forest {
		f := dsf.New(g.NumVertices())
		for p := 0; p < g.NumProperties(); p++ {
			if removed[p] || p == excluded {
				continue
			}
			for _, ti := range g.PropertyTriples(rdf.PropertyID(p)) {
				t := g.Triple(ti)
				f.Union(int32(t.S), int32(t.O))
			}
		}
		return f
	}

	// Cost and largest component of the current L_in. The forest is built
	// from scratch once; afterwards each removal reuses the winning
	// candidate's forest as the next iteration's state.
	f := build(-1)
	for int(f.MaxComponentSize()) > cap && nRemoved < g.NumProperties() {
		roots := f.Roots()
		// Root of the largest component.
		var bigRoot int32 = -1
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if f.Size(roots[v]) == f.MaxComponentSize() {
				bigRoot = roots[v]
				break
			}
		}
		cands := removalCandidates(g, roots, bigRoot, removed, maxCand, workers)
		if len(cands) == 0 {
			break // largest component has no removable property (shouldn't happen)
		}
		// Evaluate each candidate removal exactly, in parallel. Each
		// worker keeps the forest of its locally best (cost, index)
		// candidate; the worker results are merged with the same
		// tie-break, so the winner matches the serial first-minimum scan.
		type workerBest struct {
			cost int32
			idx  int
			f    *dsf.Forest
		}
		bests := make([]workerBest, workers)
		for w := range bests {
			bests[w] = workerBest{cost: 1<<31 - 1, idx: len(cands)}
		}
		par.ForEachWorker(workers, len(cands), func(w, i int) {
			f2 := build(int(cands[i].prop))
			cost := f2.MaxComponentSize()
			b := &bests[w]
			if cost < b.cost || (cost == b.cost && i < b.idx) {
				*b = workerBest{cost: cost, idx: i, f: f2}
			}
		})
		best := bests[0]
		for _, b := range bests[1:] {
			if b.cost < best.cost || (b.cost == best.cost && b.idx < best.idx) {
				best = b
			}
		}
		removed[cands[best.idx].prop] = true
		nRemoved++
		f = best.f
	}

	lin := make([]rdf.PropertyID, 0, g.NumProperties()-nRemoved)
	for p := 0; p < g.NumProperties(); p++ {
		if !removed[p] {
			lin = append(lin, rdf.PropertyID(p))
		}
	}
	return lin
}

// ExactSelector finds a maximum-cardinality internal property set by
// branch-and-bound DFS over property subsets, exploiting that Cost is
// monotone: once a partial set exceeds the cap, no superset is feasible.
// Among maximum-cardinality sets it prefers the one internalizing the most
// edges. This is the paper's MPC-Exact baseline (Table VII); it is only
// practical for small property counts (LUBM has 18).
type ExactSelector struct {
	// MaxProperties guards against accidentally running the exponential
	// search on a large graph; 0 means 24.
	MaxProperties int
}

// Name implements Selector.
func (ExactSelector) Name() string { return "exact" }

// SelectInternal implements Selector. If the graph has more properties than
// MaxProperties, it falls back to the greedy selector.
func (s ExactSelector) SelectInternal(g *rdf.Graph, cap int) []rdf.PropertyID {
	maxP := s.MaxProperties
	if maxP <= 0 {
		maxP = 24
	}
	if g.NumProperties() > maxP {
		return GreedySelector{}.SelectInternal(g, cap)
	}

	// Order properties by descending edge count so that infeasible branches
	// are cut early and the edge-count tie-break is discovered fast.
	props := g.PropertiesByFrequency()
	for i, j := 0, len(props)-1; i < j; i, j = i+1, j-1 {
		props[i], props[j] = props[j], props[i]
	}
	// Pre-prune properties that alone exceed the cap.
	feasible := props[:0]
	for _, p := range props {
		f := dsf.New(g.NumVertices())
		for _, ti := range g.PropertyTriples(p) {
			t := g.Triple(ti)
			f.Union(int32(t.S), int32(t.O))
		}
		if int(f.MaxComponentSize()) <= cap {
			feasible = append(feasible, p)
		}
	}
	props = feasible

	base := dsf.NewRollback(g.NumVertices())
	var best []rdf.PropertyID
	bestEdges := -1
	var cur []rdf.PropertyID
	curEdges := 0

	var dfs func(i int)
	dfs = func(i int) {
		// Bound: even taking every remaining property cannot beat best.
		if len(cur)+(len(props)-i) < len(best) {
			return
		}
		if i == len(props) {
			if len(cur) > len(best) || (len(cur) == len(best) && curEdges > bestEdges) {
				best = append(best[:0], cur...)
				bestEdges = curEdges
			}
			return
		}
		p := props[i]
		// Branch 1: include p if it fits.
		cp := base.Checkpoint()
		for _, ti := range g.PropertyTriples(p) {
			t := g.Triple(ti)
			base.Union(int32(t.S), int32(t.O))
		}
		if int(base.MaxComponentSize()) <= cap {
			cur = append(cur, p)
			curEdges += g.PropertyEdgeCount(p)
			dfs(i + 1)
			curEdges -= g.PropertyEdgeCount(p)
			cur = cur[:len(cur)-1]
		}
		base.Rollback(cp)
		// Branch 2: exclude p.
		dfs(i + 1)
	}
	dfs(0)
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	return best
}

// DefaultCap returns the component-size cap (1+ε)·|V|/k used by all
// selectors, mirroring partition.Options.Cap.
func DefaultCap(g *rdf.Graph, opts partition.Options) int {
	return opts.Cap(g.NumVertices())
}
