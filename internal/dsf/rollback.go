package dsf

// RollbackForest is a disjoint-set forest with union by size and an undo
// stack. It performs no path compression, so every structural change is a
// single parent/size write that can be reverted. This lets the greedy
// internal-property selector evaluate Cost(L_in ∪ {p}) for every candidate
// property p by applying p's edges and rolling back, instead of cloning the
// whole forest per candidate.
//
// Find is O(log n) due to union by size; Union pushes one undo record.
type RollbackForest struct {
	parent  []int32
	size    []int32
	maxSize int32
	numSets int
	undo    []undoRecord
}

type undoRecord struct {
	child      int32 // element whose parent pointer was changed
	root       int32 // its new parent (the surviving root)
	oldMaxSize int32
}

// NewRollback returns a rollback forest of n singleton sets.
func NewRollback(n int) *RollbackForest {
	f := &RollbackForest{
		parent:  make([]int32, n),
		size:    make([]int32, n),
		numSets: n,
	}
	for i := range f.parent {
		f.parent[i] = int32(i)
		f.size[i] = 1
	}
	if n > 0 {
		f.maxSize = 1
	}
	return f
}

// Len returns the number of elements in the forest.
func (f *RollbackForest) Len() int { return len(f.parent) }

// Find returns the representative of x's set without path compression.
func (f *RollbackForest) Find(x int32) int32 {
	for f.parent[x] != x {
		x = f.parent[x]
	}
	return x
}

// Union merges the sets of x and y, recording the change for rollback.
// It reports whether a merge happened.
func (f *RollbackForest) Union(x, y int32) bool {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return false
	}
	if f.size[rx] < f.size[ry] {
		rx, ry = ry, rx
	}
	f.undo = append(f.undo, undoRecord{child: ry, root: rx, oldMaxSize: f.maxSize})
	f.parent[ry] = rx
	f.size[rx] += f.size[ry]
	if f.size[rx] > f.maxSize {
		f.maxSize = f.size[rx]
	}
	f.numSets--
	return true
}

// Checkpoint returns a token for the current state; pass it to Rollback to
// undo every union performed since.
func (f *RollbackForest) Checkpoint() int { return len(f.undo) }

// Rollback reverts the forest to the state captured by the checkpoint.
func (f *RollbackForest) Rollback(checkpoint int) {
	for len(f.undo) > checkpoint {
		rec := f.undo[len(f.undo)-1]
		f.undo = f.undo[:len(f.undo)-1]
		f.size[rec.root] -= f.size[rec.child]
		f.parent[rec.child] = rec.child
		f.maxSize = rec.oldMaxSize
		f.numSets++
	}
}

// Commit discards undo history up to the current state, making prior unions
// permanent and freeing the undo stack.
func (f *RollbackForest) Commit() { f.undo = f.undo[:0] }

// SameSet reports whether x and y belong to the same set.
func (f *RollbackForest) SameSet(x, y int32) bool { return f.Find(x) == f.Find(y) }

// Size returns the number of elements in x's set.
func (f *RollbackForest) Size(x int32) int32 { return f.size[f.Find(x)] }

// MaxComponentSize returns the size of the largest set.
func (f *RollbackForest) MaxComponentSize() int32 { return f.maxSize }

// NumSets returns the current number of disjoint sets.
func (f *RollbackForest) NumSets() int { return f.numSets }
