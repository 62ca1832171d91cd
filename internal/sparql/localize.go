package sparql

import "slices"

// LocalizableTerms returns, in vertex order, the constant subject/object
// terms of an analyzed IEQ whose matches are guaranteed to be *internal*
// vertices of the partition holding the match. If any such constant is
// known, the query only needs to run at that constant's home partition —
// the query-localization optimization the paper leaves as future work
// (Sec. V-B2).
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
func (a Analysis) LocalizableTerms() []Term {
	var from []Term
	switch a.Class {
	case ClassInternal, ClassTypeI:
		from = a.verts
	case ClassTypeII:
		from = a.core
		if a.centres && len(from) > 1 {
			// Both endpoints of a single crossing edge are centres (the
			// edge is replicated at both homes), but only one may pin the
			// site: prefer a constant, since only a constant localizes,
			// and otherwise the first in vertex order.
			pick := from[:1]
			for i, t := range from {
				if !t.IsVar {
					pick = from[i : i+1]
					break
				}
			}
			from = pick
		}
	default:
		return nil
	}
	var out []Term
	for _, t := range from {
		if !t.IsVar && !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

// Anchor returns a variable of an analyzed IEQ whose binding's home
// partition holds every match of the query, or "" when it has none.
// Theorem 5's proof, read with Definition 3.3 (site i stores every edge
// incident to a vertex of V_i):
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
func (a Analysis) Anchor() string {
	for _, t := range a.core {
		if t.IsVar {
			return t.Value
		}
	}
	return ""
}
