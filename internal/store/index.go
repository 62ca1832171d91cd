package store

import (
	"slices"
	"sort"

	"mpc/internal/rdf"
)

// tripleIndex is the seam between the matcher and the physical triple
// representation. Two implementations exist: flatIndex (three fully
// materialized in-heap permutations, the original layout) and blockIndex
// (compressed delta-varint blocks with a decoded-block cache plus a mutable
// overlay, for snapshot-backed sites at scale). The matcher never touches
// triples directly; it asks the index to yield candidates.
//
// All methods assume the Store's lock discipline: read methods run under
// Store.mu.RLock (concurrently), insert/remove under Store.mu.Lock.
type tripleIndex interface {
	// numTriples returns the number of stored triples (a multiset count).
	numTriples() int
	// dupPairs returns the number of adjacent equal pairs in SPO order —
	// zero exactly when no triple is stored more than once.
	dupPairs() int
	// countProperty returns how many stored triples carry property p.
	countProperty(p rdf.PropertyID) int
	// candidates yields, in the sorted order of the chosen permutation,
	// every stored triple matching the bound components (s, p, o; -1 means
	// unbound). Only the index-prefix constraints are guaranteed applied —
	// the caller re-checks every component. yield returning false stops the
	// iteration. The return value is the access path taken (accessSPO...).
	candidates(s, p, o int64, yield func(rdf.Triple) bool) int
	// insert adds one instance of t (duplicates stack).
	insert(t rdf.Triple)
	// remove deletes one instance of t, reporting whether one was stored.
	remove(t rdf.Triple) bool
}

// flatIndex is the fully materialized representation: the triple list plus
// three sorted position permutations. Inserts and deletes splice the
// permutations at the binary-search point (see the package comment in
// update.go).
type flatIndex struct {
	triples []rdf.Triple

	spo []int32 // positions into triples, sorted by (S,P,O)
	pos []int32 // sorted by (P,O,S)
	ops []int32 // sorted by (O,P,S)

	// dups counts triples stored more than once, as the number of adjacent
	// equal pairs in SPO order. Maintained on every insert and delete.
	dups int
}

// newFlatIndex sorts the three permutations over the given triples. It
// takes ownership of the slice.
func newFlatIndex(triples []rdf.Triple) *flatIndex {
	x := &flatIndex{triples: triples}
	n := len(x.triples)
	x.spo = make([]int32, n)
	x.pos = make([]int32, n)
	x.ops = make([]int32, n)
	for i := range x.spo {
		x.spo[i], x.pos[i], x.ops[i] = int32(i), int32(i), int32(i)
	}
	t := x.triples
	slices.SortFunc(x.spo, func(a, b int32) int { return cmpSPO(t[a], t[b]) })
	slices.SortFunc(x.pos, func(a, b int32) int { return cmpPOS(t[a], t[b]) })
	slices.SortFunc(x.ops, func(a, b int32) int { return cmpOPS(t[a], t[b]) })
	for i := 1; i < n; i++ {
		if t[x.spo[i]] == t[x.spo[i-1]] {
			x.dups++
		}
	}
	return x
}

func (x *flatIndex) numTriples() int { return len(x.triples) }
func (x *flatIndex) dupPairs() int   { return x.dups }

func (x *flatIndex) countProperty(p rdf.PropertyID) int {
	return len(x.rangePOS(p))
}

// countTriple returns how many instances of t are stored.
func (x *flatIndex) countTriple(t rdf.Triple) int {
	lo, hi := x.eqRange(x.spo, cmpSPO, t)
	return hi - lo
}

// rangeSPO returns the positions (into spo) of triples with subject s,
// optionally restricted to property p (p < 0 means any).
func (x *flatIndex) rangeSPO(s rdf.VertexID, p int64) []int32 {
	t := x.triples
	lo := sort.Search(len(x.spo), func(i int) bool {
		tr := t[x.spo[i]]
		if tr.S != s {
			return tr.S >= s
		}
		if p < 0 {
			return true
		}
		return int64(tr.P) >= p
	})
	hi := sort.Search(len(x.spo), func(i int) bool {
		tr := t[x.spo[i]]
		if tr.S != s {
			return tr.S > s
		}
		if p < 0 {
			return false
		}
		return int64(tr.P) > p
	})
	return x.spo[lo:hi]
}

// rangeOPS returns positions of triples with object o, optionally
// restricted to property p.
func (x *flatIndex) rangeOPS(o rdf.VertexID, p int64) []int32 {
	t := x.triples
	lo := sort.Search(len(x.ops), func(i int) bool {
		tr := t[x.ops[i]]
		if tr.O != o {
			return tr.O >= o
		}
		if p < 0 {
			return true
		}
		return int64(tr.P) >= p
	})
	hi := sort.Search(len(x.ops), func(i int) bool {
		tr := t[x.ops[i]]
		if tr.O != o {
			return tr.O > o
		}
		if p < 0 {
			return false
		}
		return int64(tr.P) > p
	})
	return x.ops[lo:hi]
}

// rangePOS returns positions of triples with property p.
func (x *flatIndex) rangePOS(p rdf.PropertyID) []int32 {
	t := x.triples
	lo := sort.Search(len(x.pos), func(i int) bool { return t[x.pos[i]].P >= p })
	hi := sort.Search(len(x.pos), func(i int) bool { return t[x.pos[i]].P > p })
	return x.pos[lo:hi]
}

func (x *flatIndex) candidates(s, p, o int64, yield func(rdf.Triple) bool) int {
	var positions []int32
	var access int
	switch {
	case s >= 0:
		positions, access = x.rangeSPO(rdf.VertexID(s), p), accessSPO
	case o >= 0:
		positions, access = x.rangeOPS(rdf.VertexID(o), p), accessOPS
	case p >= 0:
		positions, access = x.rangePOS(rdf.PropertyID(p)), accessPOS
	default:
		positions, access = x.spo, accessScan
	}
	for _, pos := range positions {
		if !yield(x.triples[pos]) {
			break
		}
	}
	return access
}

// eqRange returns the half-open range [lo, hi) of entries in idx whose
// triple equals t under the given order.
func (x *flatIndex) eqRange(idx []int32, cmp func(a, b rdf.Triple) int, t rdf.Triple) (int, int) {
	lo := sort.Search(len(idx), func(i int) bool { return cmp(x.triples[idx[i]], t) >= 0 })
	hi := sort.Search(len(idx), func(i int) bool { return cmp(x.triples[idx[i]], t) > 0 })
	return lo, hi
}

func (x *flatIndex) insert(t rdf.Triple) {
	pos := int32(len(x.triples))
	x.triples = append(x.triples, t)
	lo, hi := x.eqRange(x.spo, cmpSPO, t)
	if hi > lo {
		x.dups++
	}
	x.spo = spliceIn(x.spo, lo, pos)
	lo, _ = x.eqRange(x.pos, cmpPOS, t)
	x.pos = spliceIn(x.pos, lo, pos)
	lo, _ = x.eqRange(x.ops, cmpOPS, t)
	x.ops = spliceIn(x.ops, lo, pos)
}

func (x *flatIndex) remove(t rdf.Triple) bool {
	lo, hi := x.eqRange(x.spo, cmpSPO, t)
	if hi == lo {
		return false
	}
	if hi-lo > 1 {
		x.dups--
	}
	pos := x.spo[lo]
	x.spo = spliceOutEntry(x.spo, lo, hi, pos)
	lo, hi = x.eqRange(x.pos, cmpPOS, t)
	x.pos = spliceOutEntry(x.pos, lo, hi, pos)
	lo, hi = x.eqRange(x.ops, cmpOPS, t)
	x.ops = spliceOutEntry(x.ops, lo, hi, pos)

	// Move the last triple into the hole and repoint its index entries.
	last := int32(len(x.triples) - 1)
	if pos != last {
		moved := x.triples[last]
		x.triples[pos] = moved
		lo, hi = x.eqRange(x.spo, cmpSPO, moved)
		repointEntry(x.spo, lo, hi, last, pos)
		lo, hi = x.eqRange(x.pos, cmpPOS, moved)
		repointEntry(x.pos, lo, hi, last, pos)
		lo, hi = x.eqRange(x.ops, cmpOPS, moved)
		repointEntry(x.ops, lo, hi, last, pos)
	}
	x.triples = x.triples[:last]
	return true
}
