package sparql

// Class is the independent-executability class of a query with respect to a
// partitioning's crossing property set (Section V of the paper).
type Class int

const (
	// ClassInternal: no crossing-property edge at all (Definition 5.1).
	ClassInternal Class = iota
	// ClassTypeI: still weakly connected after removing all crossing
	// property edges (Definition 5.2).
	ClassTypeI
	// ClassTypeII: removal yields one WCC plus isolated vertices, with no
	// crossing edges between the isolated vertices (Definition 5.3).
	ClassTypeII
	// ClassNonIEQ: not independently executable; must be decomposed.
	ClassNonIEQ
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassInternal:
		return "internal"
	case ClassTypeI:
		return "type-I"
	case ClassTypeII:
		return "type-II"
	default:
		return "non-IEQ"
	}
}

// IsIEQ reports whether queries of this class can be executed independently
// on every partition (Theorems 3 and 4).
func (c Class) IsIEQ() bool { return c != ClassNonIEQ }

// CrossingTest reports whether a constant property is a crossing property
// under the partitioning at hand. Variable properties are always treated as
// crossing (footnote 1 of the paper).
type CrossingTest func(property string) bool

// AllCrossing treats every property as crossing; it models partitionings
// that do not track crossing properties at all (plain Subject_Hash/METIS),
// under which only star queries are IEQs.
func AllCrossing(string) bool { return true }

// NoneCrossing treats every property as internal (a single partition).
func NoneCrossing(string) bool { return false }

// isCrossingEdge reports whether pattern tp must be treated as a
// crossing-property edge: variable property, or crossing constant property.
func isCrossingEdge(tp TriplePattern, isCrossing CrossingTest) bool {
	return tp.P.IsVar || isCrossing(tp.P.Value)
}

// Classify determines the executability class of q under the given crossing
// test, per Definitions 5.1–5.3. q is assumed weakly connected (Definition
// 3.5); callers with disconnected queries should classify each component.
func Classify(q *Query, isCrossing CrossingTest) Class {
	return Analyze(q, isCrossing).Class
}

// Analysis is the outcome of one pass over a query graph under a crossing
// test: the class of Definitions 5.1–5.3, the query's weak connectivity,
// and, for an IEQ, the vertices that can stand for its core. Classify,
// LocalizableTerms and Anchor all derive from it, so a planner that needs
// all three classifies a (sub)query once.
type Analysis struct {
	// Class is the query's executability class.
	Class Class
	// verts are the query-graph vertices (subject and object terms) in
	// first-appearance order.
	verts []Term
	// core lists, in vertex order, every vertex of an IEQ that can stand
	// for its core: every vertex of an internal or Type-I query; the
	// multi-vertex WCC of a Type-II query; or, when every WCC is a
	// singleton (centres), each centre touching all crossing edges. An
	// internal query of several WCCs is not weakly connected and has none.
	core    []Term
	centres bool
	// connected reports whether the whole query graph, crossing edges
	// included, is weakly connected.
	connected bool
}

// Analyze classifies q under isCrossing in one pass over its patterns.
func Analyze(q *Query, isCrossing CrossingTest) Analysis {
	var a Analysis
	ends := make([]int32, 2*len(q.Patterns)) // per pattern: S, O vertex index
	var byTerm map[Term]int32                // only for large queries
	index := func(t Term) int32 {
		if byTerm != nil {
			if i, ok := byTerm[t]; ok {
				return i
			}
		} else {
			for i, v := range a.verts {
				if v == t {
					return int32(i)
				}
			}
		}
		i := int32(len(a.verts))
		a.verts = append(a.verts, t)
		if byTerm == nil && len(a.verts) > 32 {
			// A linear scan stops paying past a few dozen vertices.
			byTerm = make(map[Term]int32, 2*len(a.verts))
			for j, v := range a.verts {
				byTerm[v] = int32(j)
			}
		} else if byTerm != nil {
			byTerm[t] = i
		}
		return i
	}
	for i, tp := range q.Patterns {
		ends[2*i], ends[2*i+1] = index(tp.S), index(tp.O)
	}
	n := len(a.verts)
	if n == 0 {
		a.connected = true
		return a
	}
	// Union-find over non-crossing edges; size doubles as the component
	// sizes once every vertex is counted at its root.
	parent := make([]int32, 2*n)
	size := parent[n:]
	for i := range parent[:n] {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int32) {
		if rx, ry := find(x), find(y); rx != ry {
			parent[rx] = ry
		}
	}
	var crossing []int // pattern indices of crossing edges
	for i, tp := range q.Patterns {
		if isCrossingEdge(tp, isCrossing) {
			crossing = append(crossing, i)
			continue
		}
		union(ends[2*i], ends[2*i+1])
	}
	for i := int32(0); i < int32(n); i++ {
		size[find(i)]++
	}
	// Count WCCs and multi-vertex WCCs.
	numWCC, numMulti := 0, 0
	multiRoot := int32(-1)
	for i := int32(0); i < int32(n); i++ {
		if find(i) == i {
			numWCC++
			if size[i] > 1 {
				numMulti++
				multiRoot = i
			}
		}
	}
	a.Class = ClassNonIEQ
	switch {
	case numWCC == 1:
		a.Class = ClassTypeI
		if len(crossing) == 0 {
			a.Class = ClassInternal
		}
		a.core = a.verts
	case len(crossing) == 0:
		a.Class = ClassInternal
	case numMulti > 1:
	case numMulti == 1:
		// Every crossing edge must touch the single multi-vertex WCC.
		touches := true
		for _, pi := range crossing {
			if find(ends[2*pi]) != multiRoot && find(ends[2*pi+1]) != multiRoot {
				touches = false
				break
			}
		}
		if touches {
			a.Class = ClassTypeII
			for vi := range a.verts {
				if find(int32(vi)) == multiRoot {
					a.core = append(a.core, a.verts[vi])
				}
			}
		}
	default:
		// All WCCs are singletons: Type-II iff some vertex q_i touches
		// every crossing edge (then all other singletons are pairwise
		// unconnected).
		a.centres = true
		for center := int32(0); center < int32(n); center++ {
			ok := true
			for _, pi := range crossing {
				if ends[2*pi] != center && ends[2*pi+1] != center {
					ok = false
					break
				}
			}
			if ok {
				a.Class = ClassTypeII
				a.core = append(a.core, a.verts[center])
			}
		}
	}
	// Weak connectivity: add the crossing edges to the same forest.
	if numWCC > 1 {
		for _, pi := range crossing {
			union(ends[2*pi], ends[2*pi+1])
		}
	}
	root := find(0)
	a.connected = true
	for i := int32(1); i < int32(n); i++ {
		if find(i) != root {
			a.connected = false
			break
		}
	}
	return a
}

// Connected reports whether the analyzed query graph is weakly connected
// (Definition 3.5). The empty query is.
func (a Analysis) Connected() bool { return a.connected }

// Bind returns the analysis of the query with variable v replaced by the
// constant value everywhere, without a new pass. Every match of the bound
// query is a match of the unbound one with v ↦ value, so the unbound
// query's class and core still hold for it: the proofs of Theorems 3 and 4
// place value wherever they placed v.
func (a Analysis) Bind(v, value string) Analysis {
	from, to := Var(v), Const(value)
	swap := func(ts []Term) []Term {
		out := make([]Term, len(ts))
		for i, t := range ts {
			if t == from {
				t = to
			}
			out[i] = t
		}
		return out
	}
	a.verts, a.core = swap(a.verts), swap(a.core)
	return a
}

// ClassifyPlain classifies a query for systems that only guarantee
// independent execution of star queries (SHAPE, AdPart, plain METIS-based
// systems): stars are Type-II IEQs, everything else is decomposed.
func ClassifyPlain(q *Query) Class {
	if q.IsStar() {
		return ClassTypeII
	}
	return ClassNonIEQ
}
