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
	class, core, centres := classifyCore(q, isCrossing, true)
	switch class {
	case ClassInternal, ClassTypeI:
		return constantVertexTerms(q, nil)
	case ClassTypeII:
		if centres && len(core) > 1 {
			// Both endpoints of a single crossing edge are centres (the
			// edge is replicated at both homes), but only one may pin the
			// site: prefer a constant, since only a constant localizes,
			// and otherwise the first in vertex order.
			pick := core[0]
			for _, k := range core {
				if !strings.HasPrefix(k, "?") {
					pick = k
					break
				}
			}
			core = []string{pick}
		}
		allowed := make(map[string]bool, len(core))
		for _, k := range core {
			allowed[k] = true
		}
		return constantVertexTerms(q, allowed)
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

// Anchor returns a variable of an IEQ whose binding's home partition holds
// every match of q, or "" when q has none. Theorem 5's proof, read with
// Definition 3.3 (site i stores every edge incident to a vertex of V_i):
//
//   - internal and Type-I IEQs: every query vertex matches a vertex of one
//     partition, so any vertex variable anchors;
//   - Type-II IEQs: the core WCC matches inside one partition and every
//     crossing edge touches it, so a core variable anchors; when every WCC
//     is a singleton, a variable centre touching every crossing edge does.
//
// The coordinator keeps from each site only the rows whose anchor binding
// that site owns: the per-site answers are then disjoint and their
// concatenation is the IEQ's answer. The first qualifying variable in
// vertex order is chosen, so the choice is deterministic. A query that is
// not weakly connected, not an IEQ, or whose core holds only constants has
// no anchor.
func Anchor(q *Query, isCrossing CrossingTest) string {
	_, core, _ := classifyCore(q, isCrossing, true)
	for _, k := range core {
		if strings.HasPrefix(k, "?") {
			return k[1:]
		}
	}
	return ""
}
