package sparql

import "sort"

// Decompose splits a non-IEQ query into independently executable subqueries
// following Algorithm 2 of the paper:
//
//  1. Remove crossing-property edges and variable-property edges; the
//     remaining internal-property edges form WCCs {q'_1..q'_x}, each an
//     internal IEQ.
//  2. Re-attach each removed edge: if both endpoints fall in the same WCC,
//     it joins that subquery (making it Type-I); otherwise it joins the
//     currently larger subquery (making it Type-II). Sizes grow as edges
//     are attached.
//  3. Subqueries that still consist of a single vertex and no patterns are
//     dropped — their bindings are subsumed by the subqueries containing
//     their crossing edges.
//
// Each returned subquery projects every variable it mentions, so the final
// join can match on all shared variables. The union of the subqueries'
// patterns is exactly Q's pattern multiset.
//
// If q is already an IEQ under isCrossing, Decompose returns it unchanged
// as a single element.
func Decompose(q *Query, isCrossing CrossingTest) []*Query {
	if Classify(q, isCrossing).IsIEQ() {
		return []*Query{q}
	}
	return DecomposeNonIEQ(q, isCrossing)
}

// DecomposeNonIEQ is Decompose for a query its caller has already
// classified as a non-IEQ under isCrossing: Algorithm 2 without a second
// classification pass.
func DecomposeNonIEQ(q *Query, isCrossing CrossingTest) []*Query {
	idx, n := q.vertexIndex()

	// Union-find over internal edges to identify the WCCs q'_i.
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
	var removed []TriplePattern
	var internal []TriplePattern
	for _, tp := range q.Patterns {
		if isCrossingEdge(tp, isCrossing) {
			removed = append(removed, tp)
			continue
		}
		internal = append(internal, tp)
		a, b := find(idx[tp.S.Key()]), find(idx[tp.O.Key()])
		if a != b {
			parent[a] = b
		}
	}

	// One subquery per WCC root.
	type subquery struct {
		patterns []TriplePattern
		vertices map[string]bool // term keys, grows as edges are attached
	}
	subs := map[int]*subquery{}
	for key, vi := range idx {
		root := find(vi)
		sq := subs[root]
		if sq == nil {
			sq = &subquery{vertices: map[string]bool{}}
			subs[root] = sq
		}
		sq.vertices[key] = true
	}
	for _, tp := range internal {
		root := find(idx[tp.S.Key()])
		subs[root].patterns = append(subs[root].patterns, tp)
	}

	// Attach removed edges per Algorithm 2 lines 3–12.
	for _, tp := range removed {
		ri, rj := find(idx[tp.S.Key()]), find(idx[tp.O.Key()])
		si, sj := subs[ri], subs[rj]
		var target *subquery
		switch {
		case ri == rj:
			target = si // Type-I attachment
		case len(si.vertices) <= len(sj.vertices):
			target = sj // Type-II attachment to the larger side
		default:
			target = si
		}
		target.patterns = append(target.patterns, tp)
		target.vertices[tp.S.Key()] = true
		target.vertices[tp.O.Key()] = true
	}

	// Collect subqueries with patterns (multi-vertex after attachment);
	// drop bare single-vertex leftovers. Deterministic order: by the
	// smallest pattern position in the original query.
	firstPos := func(sq *subquery) int {
		best := len(q.Patterns)
		for _, tp := range sq.patterns {
			for i, orig := range q.Patterns {
				if orig == tp && i < best {
					best = i
				}
			}
		}
		return best
	}
	var out []*subquery
	for _, sq := range subs {
		if len(sq.patterns) > 0 {
			out = append(out, sq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return firstPos(out[i]) < firstPos(out[j]) })

	result := make([]*Query, len(out))
	for i, sq := range out {
		sub := &Query{Patterns: sq.patterns}
		sub.Select = sub.Vars() // project everything for the join
		result[i] = sub
	}
	// The paper guarantees no more subqueries than the star decomposition
	// of existing systems (every star is a Type-II IEQ by Theorem 5, so
	// star decomposition is always a valid plan). On rare edge shapes —
	// several crossing edges fanning out of one vertex whose WCC stayed a
	// singleton — the greedy attachment above can exceed that bound; fall
	// back to stars in that case.
	if stars := DecomposeStars(q); len(stars) < len(result) {
		return stars
	}
	return result
}

// DecomposeStars splits a query into subject-star subqueries: patterns
// grouped by their subject term. This is the decomposition used by systems
// that can only execute star queries independently (SHAPE, H-RDF-3X,
// TriAD), against which the paper compares subquery counts. Subqueries are
// returned in order of first appearance. Algorithm 2 under AllCrossing is
// not a drop-in for it: it agrees on which queries are IEQs, but it can
// return fewer subqueries (a 3-hop path gives 3 stars but 2 Alg. 2 pieces).
func DecomposeStars(q *Query) []*Query {
	order := []string{}
	groups := map[string]*Query{}
	for _, tp := range q.Patterns {
		key := tp.S.Key()
		sub, ok := groups[key]
		if !ok {
			sub = &Query{}
			groups[key] = sub
			order = append(order, key)
		}
		sub.Patterns = append(sub.Patterns, tp)
	}
	out := make([]*Query, len(order))
	for i, key := range order {
		sub := groups[key]
		sub.Select = sub.Vars()
		out[i] = sub
	}
	return out
}
