package store

import (
	"fmt"

	"mpc/internal/rdf"
	"mpc/internal/sparql"
)

// compiled is a query lowered to dictionary IDs with an evaluation order.
type compiled struct {
	vars  []string
	kinds []VarKind
	// patterns in evaluation order; terms reference var slots or IDs.
	pats []cpattern
	// filters are pushed-down FILTER conjuncts (q.Filters), each evaluated
	// at the earliest recursion depth where its BGP-bound variables are all
	// bound.
	filters []cfilter
	// empty is set when a constant term is absent from the dictionary:
	// the query can have no matches.
	empty bool
}

// cfilter is one pushed FILTER conjunct. Variables absent from slots are
// not bound by the BGP and evaluate as unbound (SPARQL error semantics).
type cfilter struct {
	expr  sparql.Expr
	slots map[string]int
}

type cterm struct {
	isVar bool
	slot  int    // var slot when isVar
	id    uint32 // constant ID otherwise
}

type cpattern struct {
	s, p, o cterm
}

// compile lowers q against g's dictionaries. It returns an error if a
// variable is used both as a property and as a subject/object (unsupported:
// the two ID spaces are distinct).
func compile(q *sparql.Query, g *rdf.Graph) (*compiled, error) {
	c := &compiled{}
	slots := map[string]int{}
	slotFor := func(name string, kind VarKind) (int, error) {
		if s, ok := slots[name]; ok {
			if c.kinds[s] != kind {
				return 0, fmt.Errorf("store: variable ?%s used as both property and vertex", name)
			}
			return s, nil
		}
		s := len(c.vars)
		slots[name] = s
		c.vars = append(c.vars, name)
		c.kinds = append(c.kinds, kind)
		return s, nil
	}
	lower := func(t sparql.Term, kind VarKind) (cterm, error) {
		if t.IsVar {
			s, err := slotFor(t.Value, kind)
			return cterm{isVar: true, slot: s}, err
		}
		var id uint32
		var ok bool
		if kind == KindProperty {
			id, ok = g.Properties.Lookup(t.Value)
		} else {
			id, ok = g.Vertices.Lookup(t.Value)
		}
		if !ok {
			c.empty = true
		}
		return cterm{id: id}, nil
	}
	for _, tp := range q.Patterns {
		var cp cpattern
		var err error
		if cp.s, err = lower(tp.S, KindVertex); err != nil {
			return nil, err
		}
		if cp.p, err = lower(tp.P, KindProperty); err != nil {
			return nil, err
		}
		if cp.o, err = lower(tp.O, KindVertex); err != nil {
			return nil, err
		}
		c.pats = append(c.pats, cp)
	}
	for _, e := range q.Filters {
		f := cfilter{expr: e, slots: map[string]int{}}
		for _, v := range sparql.ExprVars(e) {
			if s, ok := slots[v]; ok {
				f.slots[v] = s
			}
		}
		c.filters = append(c.filters, f)
	}
	return c, nil
}

// planOrder greedily orders patterns: at each step pick the pattern with the
// most bound positions (constants or variables bound by earlier patterns),
// breaking ties by the smaller estimated cardinality. This avoids Cartesian
// products on connected queries and starts from selective patterns.
func (st *Store) planOrder(c *compiled) []int {
	n := len(c.pats)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make([]bool, len(c.vars))

	boundCount := func(cp cpattern) int {
		cnt := 0
		for _, t := range []cterm{cp.s, cp.p, cp.o} {
			if !t.isVar || bound[t.slot] {
				cnt++
			}
		}
		return cnt
	}
	// Each estimate is an index probe, so take them once, not per step.
	// Unlocked index internals rather than the public
	// CountProperty/NumTriples: planOrder runs under Match's read lock and
	// a recursive RLock can deadlock against a queued writer.
	est := make([]int, n)
	for i, cp := range c.pats {
		if cp.p.isVar {
			est[i] = st.idx.numTriples()
		} else {
			est[i] = st.idx.countProperty(rdf.PropertyID(cp.p.id))
		}
	}
	for len(order) < n {
		best, bestBound, bestEst := -1, -1, 0
		for i, cp := range c.pats {
			if used[i] {
				continue
			}
			b, e := boundCount(cp), est[i]
			if b > bestBound || (b == bestBound && e < bestEst) {
				best, bestBound, bestEst = i, b, e
			}
		}
		order = append(order, best)
		used[best] = true
		for _, t := range []cterm{c.pats[best].s, c.pats[best].p, c.pats[best].o} {
			if t.isVar {
				bound[t.slot] = true
			}
		}
	}
	return order
}

// Match evaluates the BGP q over this store and returns one row per
// distinct homomorphism (distinct full variable bindings; duplicates that
// replicated triples would induce are collapsed).
func (st *Store) Match(q *sparql.Query) (*Table, error) {
	return st.MatchWhere(q, nil)
}

// MatchWhere is Match with a per-triple admission predicate: a pattern may
// only match a triple for which pred returns true. A nil pred admits every
// local triple. The partial-evaluation engine uses this to restrict
// matches to triples owned by one site.
func (st *Store) MatchWhere(q *sparql.Query, pred func(rdf.Triple) bool) (*Table, error) {
	c, err := compile(q, st.g)
	if err != nil {
		return nil, err
	}
	// One read lock for the whole evaluation: concurrent matches share it,
	// a live update (Insert/Delete/ApplyResolved) waits for running matches
	// and blocks new ones until applied.
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := NewTable(c.vars, c.kinds)
	if c.empty || len(c.pats) == 0 {
		if st.met.enabled {
			st.met.matchCalls.Inc()
		}
		return out, nil
	}
	order := st.planOrder(c)

	// Pushed FILTER conjuncts prune partial bindings as soon as every
	// BGP-bound variable they reference is bound: compute each variable's
	// bind depth under the chosen order, then bucket filters by the depth
	// at which they become decidable.
	var filtersAt [][]*cfilter
	if len(c.filters) > 0 {
		bindDepth := make([]int, len(c.vars))
		seen := make([]bool, len(c.vars))
		for d, pi := range order {
			cp := c.pats[pi]
			for _, t := range []cterm{cp.s, cp.p, cp.o} {
				if t.isVar && !seen[t.slot] {
					seen[t.slot] = true
					bindDepth[t.slot] = d + 1
				}
			}
		}
		filtersAt = make([][]*cfilter, len(order)+1)
		for i := range c.filters {
			f := &c.filters[i]
			depth := 0
			for _, s := range f.slots {
				if bindDepth[s] > depth {
					depth = bindDepth[s]
				}
			}
			filtersAt[depth] = append(filtersAt[depth], f)
		}
	}

	// Instrumentation accumulates in locals and publishes once per Match,
	// so the matcher's recursion stays free of atomic traffic.
	var scanned, admitted int64
	var idxUse [numAccessPaths]int64

	const unbound = -1
	binding := make([]int64, len(c.vars))
	for i := range binding {
		binding[i] = unbound
	}

	// tryBind unifies term t with value v; it returns (ok, slot bound now).
	tryBind := func(t cterm, v uint32) (bool, int) {
		if !t.isVar {
			return t.id == v, -1
		}
		if binding[t.slot] != unbound {
			return uint32(binding[t.slot]) == v, -1
		}
		binding[t.slot] = int64(v)
		return true, t.slot
	}

	// Full-binding dedup. A duplicate binding can only arise when the same
	// triple is stored more than once (replicated crossing edges meeting at
	// one site): given a full binding, the triple matched by each pattern is
	// fully determined, so distinct stored triples yield distinct bindings.
	// Replica-free stores therefore skip the dedup structures entirely.
	// Keys are integers, not strings: bindings of width ≤2 pack into an
	// injective uint64; wider bindings use an FNV-style running hash with a
	// verify-on-probe chain over the already-emitted rows.
	dedup := st.idx.dupPairs() > 0
	stride := len(c.vars)
	exactKeys := stride <= 2
	var seenPacked map[uint64]struct{} // injective packed keys (width ≤ 2)
	var seenHash map[uint64][]int32    // hash → emitted row indices (wider)
	bindingKey := func() uint64 {
		if exactKeys {
			var k uint64
			if stride > 0 {
				k = uint64(uint32(binding[0]))
			}
			if stride > 1 {
				k |= uint64(uint32(binding[1])) << 32
			}
			return k
		}
		h := uint64(fnvOffset64)
		for _, b := range binding {
			h ^= uint64(uint32(b))
			h *= fnvPrime64
		}
		return h
	}

	// filterEnv resolves a filter variable against the current binding;
	// variables outside the BGP (absent from slots) are unbound.
	filterEnv := func(f *cfilter) sparql.ExprEnv {
		return func(name string) (string, bool) {
			s, ok := f.slots[name]
			if !ok || binding[s] == unbound {
				return "", false
			}
			if c.kinds[s] == KindProperty {
				return st.g.Properties.String(uint32(binding[s])), true
			}
			return st.g.Vertices.String(uint32(binding[s])), true
		}
	}
	passFilters := func(d int) bool {
		if filtersAt == nil {
			return true
		}
		for _, f := range filtersAt[d] {
			if v, ok := sparql.EvalExpr(f.expr, filterEnv(f)); !ok || !v {
				return false
			}
		}
		return true
	}

	var rec func(d int)
	rec = func(d int) {
		if !passFilters(d) {
			return
		}
		if d == len(order) {
			if dedup {
				k := bindingKey()
				if exactKeys {
					if seenPacked == nil {
						seenPacked = make(map[uint64]struct{})
					}
					if _, dup := seenPacked[k]; dup {
						return
					}
					seenPacked[k] = struct{}{}
				} else {
					if seenHash == nil {
						seenHash = make(map[uint64][]int32)
					}
					for _, r := range seenHash[k] {
						if rowEqualsBinding(out.Row(int(r)), binding) {
							return
						}
					}
					seenHash[k] = append(seenHash[k], int32(out.Len()))
				}
			}
			if stride == 0 {
				out.ZeroWidthRows++
				return
			}
			for _, b := range binding {
				out.Data = append(out.Data, uint32(b))
			}
			return
		}
		cp := c.pats[order[d]]
		s, p, o := boundVal(cp.s, binding), boundVal(cp.p, binding), boundVal(cp.o, binding)
		access := st.idx.candidates(s, p, o, func(tr rdf.Triple) bool {
			scanned++
			if pred != nil && !pred(tr) {
				return true
			}
			ok1, s1 := tryBind(cp.s, uint32(tr.S))
			if !ok1 {
				if s1 >= 0 {
					binding[s1] = unbound
				}
				return true
			}
			ok2, s2 := tryBind(cp.p, uint32(tr.P))
			if ok2 {
				var ok3 bool
				var s3 int
				ok3, s3 = tryBind(cp.o, uint32(tr.O))
				if ok3 {
					admitted++
					rec(d + 1)
				}
				if s3 >= 0 {
					binding[s3] = unbound
				}
			}
			if s2 >= 0 {
				binding[s2] = unbound
			}
			if s1 >= 0 {
				binding[s1] = unbound
			}
			return true
		})
		idxUse[access]++
	}
	rec(0)
	if st.met.enabled {
		st.met.matchCalls.Inc()
		st.met.matchRows.Add(int64(out.Len()))
		st.met.candScanned.Add(scanned)
		st.met.candAdmitted.Add(admitted)
		for i, n := range idxUse {
			if n > 0 {
				st.met.idxUse[i].Add(n)
			}
		}
		st.met.planStart[st.startAccessPath(c, order[0])].Inc()
	}
	return out, nil
}

// FNV-1a 64-bit parameters, used for integer join/dedup keys wider than two
// columns (hashing one uint32 per step instead of per byte — collisions are
// resolved by the verify-on-probe chains, so only distribution matters).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rowEqualsBinding reports whether an emitted row equals the current
// (complete) binding.
func rowEqualsBinding(row []uint32, binding []int64) bool {
	for i, v := range row {
		if v != uint32(binding[i]) {
			return false
		}
	}
	return true
}

// startAccessPath reports which access path the plan's first pattern uses
// with no variables bound yet — the matcher's entry point into the data.
func (st *Store) startAccessPath(c *compiled, first int) int {
	cp := c.pats[first]
	switch {
	case !cp.s.isVar:
		return accessSPO
	case !cp.o.isVar:
		return accessOPS
	case !cp.p.isVar:
		return accessPOS
	default:
		return accessScan
	}
}

// boundVal resolves a compiled term to its constant or currently-bound
// value, or -1 when the term is an unbound variable.
func boundVal(t cterm, binding []int64) int64 {
	if !t.isVar {
		return int64(t.id)
	}
	return binding[t.slot] // -1 if unbound
}
