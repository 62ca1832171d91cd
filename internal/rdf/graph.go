package rdf

import (
	"fmt"
	"sort"

	"mpc/internal/dsf"
)

// VertexID identifies a subject or object vertex.
type VertexID uint32

// PropertyID identifies an edge label (property).
type PropertyID uint32

// Triple is a directed labeled edge s --p--> o.
type Triple struct {
	S VertexID
	P PropertyID
	O VertexID
}

// AdjEntry is one undirected adjacency record for a vertex: the neighbor,
// the property of the connecting edge, the index of the triple in the
// graph's triple list, and whether the edge leaves this vertex (Out) or
// enters it.
type AdjEntry struct {
	Neighbor VertexID
	Prop     PropertyID
	Triple   int32
	Out      bool
}

// Graph is an in-memory RDF multigraph. Triples are appended with AddTriple
// or AddTripleIDs; Freeze builds the indexes. After freezing the graph stays
// mutable: Insert and Delete maintain the property and adjacency indexes
// incrementally, so the offline build cost is paid once and live updates are
// O(degree). Deletes tombstone the triple's slot (the triple list never
// compacts), which keeps external triple indices — site layouts — stable
// across mutations; freed slots are reused by later
// inserts. Reading methods that need indexes panic if the graph is not
// frozen.
//
// The graph itself is not synchronized; callers that mix queries and
// mutations serialize them (internal/cluster holds its state lock across
// both). The dictionaries are independently thread-safe.
type Graph struct {
	Vertices   *Dict
	Properties *Dict

	triples []Triple
	frozen  bool

	// Tombstones: dead[i] marks slot i deleted; free lists dead slots for
	// reuse by Insert.
	dead    []bool
	free    []int32
	numLive int

	// Per-property index: propIdx[p] lists the live triple slots labeled p.
	// Built at Freeze as length-capped views into one flat array (so the
	// frozen build allocates once); a post-freeze append reallocates only
	// the property it extends. propPos[slot] is the slot's position within
	// propIdx[P], enabling O(1) swap-removal.
	propIdx [][]int32
	propPos []int32

	// Per-vertex undirected adjacency, same scheme. adjPosS[slot] locates
	// the subject-side entry in adjIdx[S], adjPosO[slot] the object-side
	// entry in adjIdx[O] (-1 for self-loops, which contribute one entry).
	adjIdx  [][]AdjEntry
	adjPosS []int32
	adjPosO []int32

	// Pinned dictionary sizes for snapshot graphs (see LiveSnapshot). A
	// snapshot shares its dictionaries with the live graph, which keeps
	// interning concurrently; fixing |V| and |L| at snapshot time makes
	// NumVertices/NumProperties — and everything sized off them, like the
	// offline partitioning pipeline — deterministic for the snapshot's
	// lifetime. Zero means "live": report the dictionary's current length.
	fixedV int
	fixedP int
}

// NewGraph returns an empty mutable graph.
func NewGraph() *Graph {
	return &Graph{Vertices: NewDict(), Properties: NewDict()}
}

// AddTriple interns the three terms and appends the triple.
func (g *Graph) AddTriple(s, p, o string) Triple {
	t := Triple{
		S: VertexID(g.Vertices.Intern(s)),
		P: PropertyID(g.Properties.Intern(p)),
		O: VertexID(g.Vertices.Intern(o)),
	}
	g.AddTripleIDs(t.S, t.P, t.O)
	return t
}

// AddTripleTerms is AddTriple over byte-slice terms the caller may reuse
// (e.g. slices of a parser's line buffer): terms are interned via
// Dict.InternBytes, so known terms allocate nothing. This is the
// streaming-ingest path of internal/ntriples.
func (g *Graph) AddTripleTerms(s, p, o []byte) Triple {
	t := Triple{
		S: VertexID(g.Vertices.InternBytes(s)),
		P: PropertyID(g.Properties.InternBytes(p)),
		O: VertexID(g.Vertices.InternBytes(o)),
	}
	g.AddTripleIDs(t.S, t.P, t.O)
	return t
}

// AddTripleIDs appends a triple over already-interned IDs. Vertex and
// property IDs beyond the current dictionaries are allowed only if the
// caller manages its own ID space; mixing styles is the caller's
// responsibility. On a frozen graph this is a live insert: the indexes are
// maintained incrementally (see Insert).
func (g *Graph) AddTripleIDs(s VertexID, p PropertyID, o VertexID) {
	g.Insert(s, p, o)
}

// NumVertices returns |V| (pinned at snapshot time for snapshot graphs).
func (g *Graph) NumVertices() int {
	if g.fixedV > 0 {
		return g.fixedV
	}
	return g.Vertices.Len()
}

// NumProperties returns |L| (pinned at snapshot time for snapshot graphs).
func (g *Graph) NumProperties() int {
	if g.fixedP > 0 {
		return g.fixedP
	}
	return g.Properties.Len()
}

// LiveSnapshot returns a frozen, tombstone-free copy of the live triple
// set, sharing the (append-only, thread-safe) dictionaries with g. The
// copy pins NumVertices/NumProperties to the dictionary sizes observed at
// snapshot time, so concurrent interning on the live graph cannot change
// what the snapshot reports mid-computation. This is the input the
// repartitioner feeds to the offline MPC pipeline, whose stages iterate
// Triples() without tombstone checks and size their arrays off |V|/|L| at
// several points.
//
// The caller must prevent concurrent triple mutation of g for the
// duration of the call (the cluster holds its state read-lock, which
// excludes writers); dictionary growth by other goroutines is fine.
func (g *Graph) LiveSnapshot() *Graph {
	sub := &Graph{
		Vertices:   g.Vertices,
		Properties: g.Properties,
		fixedV:     g.Vertices.Len(),
		fixedP:     g.Properties.Len(),
	}
	live := g.LiveTriples()
	sub.triples = make([]Triple, len(live))
	for i, ti := range live {
		sub.triples[i] = g.triples[ti]
	}
	sub.Freeze()
	return sub
}

// NumTriples returns the number of triple slots, live and tombstoned alike
// — the valid index range for Triple. Use NumLiveTriples for |E|. The two
// agree on any graph that has seen no deletes.
func (g *Graph) NumTriples() int { return len(g.triples) }

// NumLiveTriples returns |E|: the number of live triples (a multiset;
// duplicates count, tombstoned slots do not).
func (g *Graph) NumLiveTriples() int {
	if !g.frozen {
		return len(g.triples)
	}
	return g.numLive
}

// Triple returns the triple in slot i. The slot may be tombstoned; check
// TripleLive when iterating a mutated graph.
func (g *Graph) Triple(i int32) Triple { return g.triples[i] }

// TripleLive reports whether slot i holds a live (non-deleted) triple.
func (g *Graph) TripleLive(i int32) bool {
	if i < 0 || int(i) >= len(g.triples) {
		return false
	}
	return len(g.dead) == 0 || !g.dead[i]
}

// LiveTriples returns the slots of all live triples in ascending order.
func (g *Graph) LiveTriples() []int32 {
	out := make([]int32, 0, g.NumLiveTriples())
	for i := range g.triples {
		if g.TripleLive(int32(i)) {
			out = append(out, int32(i))
		}
	}
	return out
}

// Triples returns the underlying triple slice, including tombstoned slots.
// Callers must not mutate it; iteration over a mutated graph should skip
// slots for which TripleLive is false.
func (g *Graph) Triples() []Triple { return g.triples }

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// Freeze builds the property and adjacency indexes. It is idempotent.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.frozen = true
	nV, nP, nE := g.NumVertices(), g.NumProperties(), len(g.triples)
	g.numLive = nE

	// Counting sort of triple slots by property, then expose each
	// property's range as a capacity-clamped view so post-freeze appends
	// copy out instead of clobbering the neighbor property.
	propOff := make([]int32, nP+1)
	for _, t := range g.triples {
		propOff[t.P+1]++
	}
	for p := 0; p < nP; p++ {
		propOff[p+1] += propOff[p]
	}
	propFlat := make([]int32, nE)
	g.propPos = make([]int32, nE)
	cursor := append([]int32(nil), propOff...)
	for i, t := range g.triples {
		propFlat[cursor[t.P]] = int32(i)
		g.propPos[i] = cursor[t.P] - propOff[t.P]
		cursor[t.P]++
	}
	g.propIdx = make([][]int32, nP)
	for p := 0; p < nP; p++ {
		lo, hi := propOff[p], propOff[p+1]
		g.propIdx[p] = propFlat[lo:hi:hi]
	}

	// Undirected adjacency: every triple contributes two entries, except
	// self-loops which contribute one.
	adjOff := make([]int32, nV+1)
	for _, t := range g.triples {
		adjOff[t.S+1]++
		if t.S != t.O {
			adjOff[t.O+1]++
		}
	}
	for v := 0; v < nV; v++ {
		adjOff[v+1] += adjOff[v]
	}
	adjFlat := make([]AdjEntry, adjOff[nV])
	g.adjPosS = make([]int32, nE)
	g.adjPosO = make([]int32, nE)
	acur := append([]int32(nil), adjOff...)
	for i, t := range g.triples {
		adjFlat[acur[t.S]] = AdjEntry{Neighbor: t.O, Prop: t.P, Triple: int32(i), Out: true}
		g.adjPosS[i] = acur[t.S] - adjOff[t.S]
		acur[t.S]++
		if t.S != t.O {
			adjFlat[acur[t.O]] = AdjEntry{Neighbor: t.S, Prop: t.P, Triple: int32(i), Out: false}
			g.adjPosO[i] = acur[t.O] - adjOff[t.O]
			acur[t.O]++
		} else {
			g.adjPosO[i] = -1
		}
	}
	g.adjIdx = make([][]AdjEntry, nV)
	for v := 0; v < nV; v++ {
		lo, hi := adjOff[v], adjOff[v+1]
		g.adjIdx[v] = adjFlat[lo:hi:hi]
	}
}

// ensureIndexed grows the per-property and per-vertex index tables to cover
// IDs interned after Freeze.
func (g *Graph) ensureIndexed(s VertexID, p PropertyID, o VertexID) {
	need := int(s) + 1
	if int(o)+1 > need {
		need = int(o) + 1
	}
	for len(g.adjIdx) < need {
		g.adjIdx = append(g.adjIdx, nil)
	}
	for len(g.propIdx) < int(p)+1 {
		g.propIdx = append(g.propIdx, nil)
	}
}

// Insert adds the triple s --p--> o and returns its slot. Before Freeze it
// is a plain append; after Freeze it maintains the property and adjacency
// indexes incrementally, reusing a tombstoned slot when one is free.
func (g *Graph) Insert(s VertexID, p PropertyID, o VertexID) int32 {
	if !g.frozen {
		g.triples = append(g.triples, Triple{S: s, P: p, O: o})
		return int32(len(g.triples) - 1)
	}
	g.ensureIndexed(s, p, o)
	var slot int32
	if n := len(g.free); n > 0 {
		slot = g.free[n-1]
		g.free = g.free[:n-1]
		g.triples[slot] = Triple{S: s, P: p, O: o}
		g.dead[slot] = false
	} else {
		slot = int32(len(g.triples))
		g.triples = append(g.triples, Triple{S: s, P: p, O: o})
		if len(g.dead) > 0 {
			g.dead = append(g.dead, false)
		}
		g.propPos = append(g.propPos, 0)
		g.adjPosS = append(g.adjPosS, 0)
		g.adjPosO = append(g.adjPosO, 0)
	}
	g.numLive++
	g.propIdx[p] = append(g.propIdx[p], slot)
	g.propPos[slot] = int32(len(g.propIdx[p]) - 1)
	g.adjIdx[s] = append(g.adjIdx[s], AdjEntry{Neighbor: o, Prop: p, Triple: slot, Out: true})
	g.adjPosS[slot] = int32(len(g.adjIdx[s]) - 1)
	if s != o {
		g.adjIdx[o] = append(g.adjIdx[o], AdjEntry{Neighbor: s, Prop: p, Triple: slot, Out: false})
		g.adjPosO[slot] = int32(len(g.adjIdx[o]) - 1)
	} else {
		g.adjPosO[slot] = -1
	}
	return slot
}

// removeAdjEntry swap-removes position pos from vertex v's adjacency list,
// repointing the moved entry's position record.
func (g *Graph) removeAdjEntry(v VertexID, pos int32) {
	list := g.adjIdx[v]
	last := int32(len(list) - 1)
	moved := list[last]
	list[pos] = moved
	g.adjIdx[v] = list[:last]
	if pos != last {
		if moved.Out {
			g.adjPosS[moved.Triple] = pos
		} else {
			g.adjPosO[moved.Triple] = pos
		}
	}
}

// Delete tombstones the triple in slot i and unlinks it from the property
// and adjacency indexes in O(1). It reports whether a live triple was
// deleted (false for out-of-range or already-dead slots). The slot's value
// stays readable (Triple) but TripleLive turns false and the slot becomes
// eligible for reuse by Insert.
func (g *Graph) Delete(i int32) bool {
	g.mustFrozen()
	if i < 0 || int(i) >= len(g.triples) {
		return false
	}
	if len(g.dead) == 0 {
		g.dead = make([]bool, len(g.triples))
	}
	if g.dead[i] {
		return false
	}
	t := g.triples[i]

	// Property index: swap-remove, fixing the moved slot's position.
	list := g.propIdx[t.P]
	pos, last := g.propPos[i], int32(len(list)-1)
	moved := list[last]
	list[pos] = moved
	g.propIdx[t.P] = list[:last]
	if pos != last {
		g.propPos[moved] = pos
	}

	g.removeAdjEntry(t.S, g.adjPosS[i])
	if t.S != t.O {
		g.removeAdjEntry(t.O, g.adjPosO[i])
	}

	g.dead[i] = true
	g.free = append(g.free, i)
	g.numLive--
	return true
}

// FindTriple returns the slot of one live triple with the given terms
// (lowest adjacency position if duplicates exist), or false when the graph
// holds none. Duplicate triples are a multiset: each FindTriple+Delete pair
// removes one instance.
func (g *Graph) FindTriple(s VertexID, p PropertyID, o VertexID) (int32, bool) {
	g.mustFrozen()
	if int(s) >= len(g.adjIdx) {
		return 0, false
	}
	for _, e := range g.adjIdx[s] {
		if e.Out && e.Prop == p && e.Neighbor == o {
			return e.Triple, true
		}
	}
	return 0, false
}

func (g *Graph) mustFrozen() {
	if !g.frozen {
		panic("rdf: graph must be frozen first")
	}
}

// PropertyTriples returns the slots of all live triples labeled p.
// The returned slice is invalidated by the next Insert or Delete.
func (g *Graph) PropertyTriples(p PropertyID) []int32 {
	g.mustFrozen()
	if int(p) >= len(g.propIdx) {
		return nil
	}
	return g.propIdx[p]
}

// PropertyEdgeCount returns the number of live triples labeled p.
func (g *Graph) PropertyEdgeCount(p PropertyID) int {
	g.mustFrozen()
	if int(p) >= len(g.propIdx) {
		return 0
	}
	return len(g.propIdx[p])
}

// Adj returns the undirected adjacency entries of v (live edges only).
// The returned slice is invalidated by the next Insert or Delete.
func (g *Graph) Adj(v VertexID) []AdjEntry {
	g.mustFrozen()
	if int(v) >= len(g.adjIdx) {
		return nil
	}
	return g.adjIdx[v]
}

// Degree returns the undirected degree of v (self-loops count once).
func (g *Graph) Degree(v VertexID) int {
	g.mustFrozen()
	if int(v) >= len(g.adjIdx) {
		return 0
	}
	return len(g.adjIdx[v])
}

// WCC returns a disjoint-set forest whose sets are the weakly connected
// components of the subgraph induced by the given properties, G[L']
// (Definition 3.2). Vertices not incident to any edge of L' remain
// singletons. With props covering all properties this yields WCC(G).
func (g *Graph) WCC(props []PropertyID) *dsf.Forest {
	g.mustFrozen()
	f := dsf.New(g.NumVertices())
	for _, p := range props {
		for _, ti := range g.PropertyTriples(p) {
			t := g.triples[ti]
			f.Union(int32(t.S), int32(t.O))
		}
	}
	return f
}

// WCCAll returns the weakly connected components of the whole graph
// (live triples only).
func (g *Graph) WCCAll() *dsf.Forest {
	g.mustFrozen()
	f := dsf.New(g.NumVertices())
	for i, t := range g.triples {
		if !g.TripleLive(int32(i)) {
			continue
		}
		f.Union(int32(t.S), int32(t.O))
	}
	return f
}

// AllProperties returns all property IDs, 0..|L|-1.
func (g *Graph) AllProperties() []PropertyID {
	ps := make([]PropertyID, g.NumProperties())
	for i := range ps {
		ps[i] = PropertyID(i)
	}
	return ps
}

// PropertiesByFrequency returns property IDs sorted by ascending edge count,
// ties broken by ID. This is the default candidate order for the greedy
// internal-property selector: cheap properties first.
func (g *Graph) PropertiesByFrequency() []PropertyID {
	g.mustFrozen()
	ps := g.AllProperties()
	sort.Slice(ps, func(i, j int) bool {
		ci, cj := g.PropertyEdgeCount(ps[i]), g.PropertyEdgeCount(ps[j])
		if ci != cj {
			return ci < cj
		}
		return ps[i] < ps[j]
	})
	return ps
}

// Stats returns a one-line human-readable summary.
func (g *Graph) Stats() string {
	return fmt.Sprintf("vertices=%d triples=%d properties=%d",
		g.NumVertices(), g.NumLiveTriples(), g.NumProperties())
}
