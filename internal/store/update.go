package store

import (
	"cmp"

	"mpc/internal/rdf"
)

// Live mutation of the sorted indexes. For the flat layout each index is a
// permutation of positions into the triple list; an insert appends the
// triple and splices its position into all three orders at the
// binary-search point, a delete swap-moves the last triple into the vacated
// position and repoints that triple's three index entries. Both keep the
// indexes exactly sorted, so the matcher's range searches need no changes
// and no compaction pass ever runs. The block layout instead routes
// mutations into its overlay (see blocks.go); either way the matcher sees
// the post-update multiset.

// cmpSPO, cmpPOS and cmpOPS order triples as their keyOf keys compare.
func cmpSPO(a, b rdf.Triple) int {
	if a.S != b.S {
		return cmp.Compare(a.S, b.S)
	}
	if a.P != b.P {
		return cmp.Compare(a.P, b.P)
	}
	return cmp.Compare(a.O, b.O)
}

func cmpPOS(a, b rdf.Triple) int {
	if a.P != b.P {
		return cmp.Compare(a.P, b.P)
	}
	if a.O != b.O {
		return cmp.Compare(a.O, b.O)
	}
	return cmp.Compare(a.S, b.S)
}

func cmpOPS(a, b rdf.Triple) int {
	if a.O != b.O {
		return cmp.Compare(a.O, b.O)
	}
	if a.P != b.P {
		return cmp.Compare(a.P, b.P)
	}
	return cmp.Compare(a.S, b.S)
}

// spliceIn inserts pos into idx at i.
func spliceIn(idx []int32, i int, pos int32) []int32 {
	idx = append(idx, 0)
	copy(idx[i+1:], idx[i:])
	idx[i] = pos
	return idx
}

// spliceOutEntry removes the entry equal to pos from idx[lo:hi].
func spliceOutEntry(idx []int32, lo, hi int, pos int32) []int32 {
	for i := lo; i < hi; i++ {
		if idx[i] == pos {
			copy(idx[i:], idx[i+1:])
			return idx[:len(idx)-1]
		}
	}
	panic("store: index entry missing for stored triple")
}

// repointEntry rewrites the entry equal to from in idx[lo:hi] to to.
func repointEntry(idx []int32, lo, hi int, from, to int32) {
	for i := lo; i < hi; i++ {
		if idx[i] == from {
			idx[i] = to
			return
		}
	}
	panic("store: index entry missing for moved triple")
}

// Insert adds one instance of t to the store (duplicates stack; the dedup
// gate turns on automatically when an insert creates the first duplicate).
func (st *Store) Insert(t rdf.Triple) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.idx.insert(t)
}

// Delete removes one instance of t, reporting whether one was stored.
func (st *Store) Delete(t rdf.Triple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.idx.remove(t)
}

// ApplyResolved applies a batch of resolved ops under one write lock.
// Deletes of triples this site does not hold count as NotFound — the
// expected outcome when the coordinator fans a batch out to every site.
func (st *Store) ApplyResolved(resolved []rdf.ResolvedUpdate) rdf.ApplyStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	var stats rdf.ApplyStats
	for _, u := range resolved {
		if u.Insert {
			st.idx.insert(u.T)
			stats.Inserted++
		} else if st.idx.remove(u.T) {
			stats.Deleted++
		} else {
			stats.NotFound++
		}
	}
	return stats
}
