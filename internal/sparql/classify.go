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
	class, _, _ := classifyCore(q, isCrossing, false)
	return class
}

// classifyCore is Classify that, when withCore is set, also returns the
// keys, in vertex order, of every vertex of an IEQ that can stand for its
// core: every vertex of an internal or Type-I query; the multi-vertex WCC
// of a Type-II query; or, when every WCC is a singleton, each centre
// touching all crossing edges (centres reports this last case). An
// internal query of several WCCs is not weakly connected and has no core.
func classifyCore(q *Query, isCrossing CrossingTest, withCore bool) (class Class, core []string, centres bool) {
	idx, n := q.vertexIndex()
	if n == 0 {
		return ClassInternal, nil, false
	}
	// Union-find over non-crossing edges.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var crossing []TriplePattern
	for _, tp := range q.Patterns {
		if isCrossingEdge(tp, isCrossing) {
			crossing = append(crossing, tp)
			continue
		}
		a, b := find(idx[tp.S.Key()]), find(idx[tp.O.Key()])
		if a != b {
			parent[a] = b
		}
	}
	// Component sizes.
	size := make([]int, n)
	for i := 0; i < n; i++ {
		size[find(i)]++
	}
	// Count WCCs and multi-vertex WCCs.
	numWCC, numMulti := 0, 0
	multiRoot := -1
	for i := 0; i < n; i++ {
		if find(i) == i {
			numWCC++
			if size[i] > 1 {
				numMulti++
				multiRoot = i
			}
		}
	}
	var keys []string // vertex keys in vertex order
	if withCore {
		keys = make([]string, n)
		for k, i := range idx {
			keys[i] = k
		}
	}
	switch {
	case numWCC == 1:
		class = ClassTypeI
		if len(crossing) == 0 {
			class = ClassInternal
		}
		return class, keys, false
	case len(crossing) == 0:
		return ClassInternal, nil, false
	case numMulti > 1:
		return ClassNonIEQ, nil, false
	case numMulti == 1:
		// Every crossing edge must touch the single multi-vertex WCC.
		for _, tp := range crossing {
			if find(idx[tp.S.Key()]) != multiRoot && find(idx[tp.O.Key()]) != multiRoot {
				return ClassNonIEQ, nil, false
			}
		}
		for vi, key := range keys {
			if find(vi) == multiRoot {
				core = append(core, key)
			}
		}
		return ClassTypeII, core, false
	}
	// All WCCs are singletons: Type-II iff some vertex q_i touches every
	// crossing edge (then all other singletons are pairwise unconnected).
	class = ClassNonIEQ
	for center := 0; center < n; center++ {
		ok := true
		for _, tp := range crossing {
			if idx[tp.S.Key()] != center && idx[tp.O.Key()] != center {
				ok = false
				break
			}
		}
		if ok {
			if !withCore {
				return ClassTypeII, nil, false
			}
			class = ClassTypeII
			core = append(core, keys[center])
		}
	}
	return class, core, true
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
