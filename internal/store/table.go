package store

import "sort"

// VarKind distinguishes variables bound to graph vertices from variables
// bound to properties; the two live in separate dictionaries.
type VarKind uint8

const (
	// KindVertex marks a variable occurring in subject/object position.
	KindVertex VarKind = iota
	// KindProperty marks a variable occurring in property position.
	KindProperty
)

// NullID is the in-cell sentinel for an unbound (null) binding, produced by
// OPTIONAL's left-outer join and UNION's schema merge. Dictionary IDs are
// dense from zero and far below 2^32-1, so the sentinel can never collide
// with a real ID. Nulls exist only in coordinator-side operator results:
// BGP leaves evaluated at sites never produce them, so no null-bearing
// table crosses the wire (DESIGN.md §15).
const NullID = ^uint32(0)

// Table is a set of variable bindings: one row per match, one column per
// variable. Values are IDs into the graph's vertex or property dictionary
// according to the column's kind.
//
// Storage is columnar-friendly row-major flat data: row r spans
// Data[r*len(Vars) : (r+1)*len(Vars)]. One backing array per table — no
// per-row slice headers — is what keeps the online join path allocation-free:
// appending a row is a bulk append, reading one is a reslice.
type Table struct {
	Vars  []string
	Kinds []VarKind
	// Data is the flat row-major binding storage; its stride is len(Vars).
	Data []uint32
	// ZeroWidthRows is the row count of a table with no columns (the join
	// identity and fully-constant queries); ignored when Vars is nonempty,
	// since the count then follows from len(Data).
	ZeroWidthRows int

	cols map[string]int // variable → column cache, nil on literal tables
}

// NewTable returns an empty table with the given schema and a column-index
// cache, so Col is a map hit instead of a linear scan in hot loops. The
// slices are retained, not copied.
func NewTable(vars []string, kinds []VarKind) *Table {
	t := &Table{Vars: vars, Kinds: kinds}
	t.BuildColIndex()
	return t
}

// BuildColIndex (re)builds the variable→column cache after the schema is
// set. Tables built with NewTable already have it; literal composites only
// need it when Col shows up in a profile.
func (t *Table) BuildColIndex() {
	if len(t.Vars) == 0 {
		t.cols = nil
		return
	}
	t.cols = make(map[string]int, len(t.Vars))
	for i, v := range t.Vars {
		t.cols[v] = i
	}
}

// Col returns the column index of the named variable, or -1.
func (t *Table) Col(name string) int {
	if t.cols != nil {
		if c, ok := t.cols[name]; ok {
			return c
		}
		return -1
	}
	for i, v := range t.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Stride returns the number of columns (the width of one row).
func (t *Table) Stride() int { return len(t.Vars) }

// Len returns the number of rows.
func (t *Table) Len() int {
	if len(t.Vars) == 0 {
		return t.ZeroWidthRows
	}
	return len(t.Data) / len(t.Vars)
}

// At returns the value of row r, column c.
func (t *Table) At(r, c int) uint32 { return t.Data[r*len(t.Vars)+c] }

// Row returns row r as a subslice of the flat storage. The view is only
// valid until the next append; callers that retain rows must copy.
func (t *Table) Row(r int) []uint32 {
	w := len(t.Vars)
	return t.Data[r*w : (r+1)*w : (r+1)*w]
}

// AppendRow appends one row, which must have exactly Stride values.
func (t *Table) AppendRow(vals ...uint32) {
	if len(vals) != len(t.Vars) {
		panic("store: AppendRow width does not match table stride")
	}
	if len(t.Vars) == 0 {
		t.ZeroWidthRows++
		return
	}
	t.Data = append(t.Data, vals...)
}

// Grow reserves capacity for n additional rows.
func (t *Table) Grow(n int) {
	w := len(t.Vars)
	if w == 0 || n <= 0 {
		return
	}
	need := len(t.Data) + n*w
	if need <= cap(t.Data) {
		return
	}
	grown := make([]uint32, len(t.Data), need)
	copy(grown, t.Data)
	t.Data = grown
}

// IsNull reports whether row r, column c holds the null sentinel.
func (t *Table) IsNull(r, c int) bool { return t.At(r, c) == NullID }

// NullCols returns a bitmap of columns that contain at least one NullID
// (bit i set ⇔ column i is nullable in this table's data). Tables are at
// most a few dozen columns wide, so a uint64 suffices; callers use the
// bitmap to keep null-free joins on the allocation-free fast path.
func (t *Table) NullCols() uint64 {
	w := len(t.Vars)
	if w == 0 {
		return 0
	}
	if w > 64 {
		// Conservative: joins over (never seen in practice) ultra-wide
		// tables take the null-aware path unconditionally.
		return ^uint64(0)
	}
	var mask uint64
	all := uint64(1)<<uint(w) - 1
	for i, v := range t.Data {
		if v == NullID {
			mask |= 1 << uint(i%w)
			if mask == all {
				break
			}
		}
	}
	return mask
}

// SortRows sorts the rows lexicographically by their cell values. Path
// closures enumerate reach sets in map order, so their tables are sorted
// into this canonical order to keep results bit-identical across runs and
// transports.
func (t *Table) SortRows() {
	w := len(t.Vars)
	n := t.Len()
	if w == 0 || n < 2 {
		return
	}
	rows := make([][]uint32, n)
	for r := 0; r < n; r++ {
		rows[r] = t.Row(r)
	}
	sort.Slice(rows, func(i, j int) bool {
		for c := 0; c < w; c++ {
			if rows[i][c] != rows[j][c] {
				return rows[i][c] < rows[j][c]
			}
		}
		return false
	})
	sorted := make([]uint32, 0, len(t.Data))
	for _, row := range rows {
		sorted = append(sorted, row...)
	}
	t.Data = sorted
}

// Truncate drops all rows past the first n.
func (t *Table) Truncate(n int) {
	if len(t.Vars) == 0 {
		if n < t.ZeroWidthRows {
			t.ZeroWidthRows = n
		}
		return
	}
	if w := n * len(t.Vars); w < len(t.Data) {
		t.Data = t.Data[:w]
	}
}
