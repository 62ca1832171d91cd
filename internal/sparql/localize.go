package sparql

import "strings"

// LocalizableTerms returns the constant subject/object terms of an IEQ
// whose matches are guaranteed to be *internal* vertices of the partition
// holding the match. If any such constant is known, the query only needs to
// run at that constant's home partition — the query-localization
// optimization the paper leaves as future work (Sec. V-B2).
//
// Which constants qualify follows from the proofs of Theorems 3 and 4:
//
//   - internal and Type-I IEQs: every query vertex matches an internal
//     vertex of one partition, so every constant qualifies;
//   - Type-II IEQs: vertices of the core WCC (what remains connected after
//     removing crossing-property edges) match internal vertices; satellite
//     vertices may match replicas at other sites, so they do not qualify.
//
// For non-IEQs the result is nil: localization does not apply.
func LocalizableTerms(q *Query, isCrossing CrossingTest) []Term {
	class := Classify(q, isCrossing)
	switch class {
	case ClassInternal, ClassTypeI:
		return constantVertexTerms(q, nil)
	case ClassTypeII:
		core := coreVertexKeys(q, isCrossing)
		return constantVertexTerms(q, core)
	default:
		return nil
	}
}

// constantVertexTerms collects distinct constant S/O terms, optionally
// restricted to the given vertex-key set.
func constantVertexTerms(q *Query, allowed map[string]bool) []Term {
	seen := map[string]bool{}
	var out []Term
	for _, tp := range q.Patterns {
		for _, t := range []Term{tp.S, tp.O} {
			if t.IsVar || seen[t.Key()] {
				continue
			}
			if allowed != nil && !allowed[t.Key()] {
				continue
			}
			seen[t.Key()] = true
			out = append(out, t)
		}
	}
	return out
}

// coreVertexKeys returns the vertex keys of the Type-II core: the single
// multi-vertex WCC left after removing crossing-property edges, or — when
// every WCC is a singleton (a star of crossing edges) — the center vertex
// incident to every crossing edge.
func coreVertexKeys(q *Query, isCrossing CrossingTest) map[string]bool {
	idx, n := q.vertexIndex()
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
	size := make([]int, n)
	for i := 0; i < n; i++ {
		size[find(i)]++
	}
	multiRoot := -1
	for i := 0; i < n; i++ {
		if find(i) == i && size[i] > 1 {
			multiRoot = i
			break
		}
	}
	core := map[string]bool{}
	if multiRoot >= 0 {
		for key, vi := range idx {
			if find(vi) == multiRoot {
				core[key] = true
			}
		}
		return core
	}
	// All singletons: the core is a center touching every crossing edge.
	// Both endpoints of a single crossing edge are centers (the edge is
	// replicated at both homes); prefer a constant one, since only a
	// constant localizes, and otherwise the first in vertex order, so the
	// choice never depends on map iteration.
	keys := make([]string, n)
	for key, vi := range idx {
		keys[vi] = key
	}
	center := ""
	for vi, key := range keys {
		ok := true
		for _, tp := range crossing {
			if idx[tp.S.Key()] != vi && idx[tp.O.Key()] != vi {
				ok = false
				break
			}
		}
		if ok && (center == "" || !strings.HasPrefix(key, "?")) {
			center = key
			if !strings.HasPrefix(key, "?") {
				break
			}
		}
	}
	if center != "" {
		core[center] = true
	}
	return core
}
