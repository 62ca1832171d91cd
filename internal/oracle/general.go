package oracle

import (
	"fmt"

	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// This file extends the naive reference evaluator to the generalized
// operator tree (OPTIONAL / UNION / FILTER / property paths, DESIGN.md §15).
// Like the BGP evaluator it optimizes for obviousness: operators are
// nested-loop folds over canonical Bindings, paths are BFS closures over the
// full live triple list, and a shared work budget aborts blowups with
// ErrTooLarge. Unbound cells introduced by OPTIONAL and UNION are
// represented with store.NullID, exactly as in cluster tables, so
// Canonicalize-based comparison needs no translation.

// EvalQuery evaluates q — plain BGP or generalized operator tree — over the
// full graph and returns distinct full bindings (SELECT is ignored; apply
// ProjectQuery). It is the generalized companion of Eval and the reference
// the differential harness compares every execution path against.
func EvalQuery(g *rdf.Graph, q *sparql.Query, limit int) (*Bindings, error) {
	if q.IsBGP() && len(q.Filters) == 0 {
		return Eval(g, q, limit)
	}
	e := &genEval{g: g, limit: limit, work: workBudget}
	var b *Bindings
	var err error
	if q.Where == nil {
		b, err = Eval(g, &sparql.Query{Patterns: q.Patterns}, limit)
	} else {
		b, err = e.pattern(q.Where)
	}
	if err != nil {
		return nil, err
	}
	// Filters on the query root (pushed-down conjuncts) apply to the final
	// bindings, mirroring the engine.
	return e.filter(b, q.Filters)
}

// genEval carries the work budget of one generalized evaluation. BGP leaves
// delegate to Eval (which has its own budget); the operators charge here.
type genEval struct {
	g     *rdf.Graph
	limit int
	work  int
}

func (e *genEval) charge(n int) error {
	e.work -= n
	if e.work < 0 {
		return ErrTooLarge
	}
	return nil
}

func (e *genEval) checkLimit(b *Bindings) (*Bindings, error) {
	if e.limit > 0 && b.Len() > e.limit {
		return nil, ErrTooLarge
	}
	return b, nil
}

// pattern evaluates one operator-tree node to canonical Bindings.
func (e *genEval) pattern(p sparql.GraphPattern) (*Bindings, error) {
	switch n := p.(type) {
	case *sparql.BGP:
		return Eval(e.g, &sparql.Query{Patterns: n.Patterns}, e.limit)
	case *sparql.PathPattern:
		return e.path(n)
	case *sparql.Optional:
		// A bare OPTIONAL is a group of one: LeftJoin against the identity.
		return e.group(&sparql.Group{Parts: []sparql.GraphPattern{n}})
	case *sparql.Union:
		arms := make([]*Bindings, len(n.Arms))
		for i, arm := range n.Arms {
			b, err := e.pattern(arm)
			if err != nil {
				return nil, err
			}
			arms[i] = b
		}
		return e.union(arms)
	case *sparql.Group:
		return e.group(n)
	}
	return nil, fmt.Errorf("oracle: unknown pattern node %T", p)
}

// identity is the join identity: no columns, one row.
func identity() *Bindings {
	return &Bindings{Rows: [][]uint32{{}}}
}

// group folds the parts left to right in syntactic order — compatibility
// join for plain parts, left-outer join for OPTIONAL parts — then applies
// the group's FILTER constraints (no pushdown: the oracle is the spec the
// engine's pushdown must commute with).
func (e *genEval) group(gp *sparql.Group) (*Bindings, error) {
	acc := identity()
	for _, part := range gp.Parts {
		leftOuter := false
		var right *Bindings
		var err error
		if opt, ok := part.(*sparql.Optional); ok {
			leftOuter = true
			right, err = e.pattern(opt.Inner)
		} else {
			right, err = e.pattern(part)
		}
		if err != nil {
			return nil, err
		}
		if acc, err = e.joinCompat(acc, right, leftOuter); err != nil {
			return nil, err
		}
	}
	return e.filter(acc, gp.Filters)
}

// joinCompat is SPARQL solution-compatibility join: two rows are compatible
// when every shared variable is null on either side or equal; the merged
// cell takes the bound side's value. leftOuter additionally keeps
// unmatched left rows, padding right-only columns with NullID. Output rows
// are distinct (set semantics after every operator).
func (e *genEval) joinCompat(a, b *Bindings, leftOuter bool) (*Bindings, error) {
	out := &Bindings{
		Vars:  append([]string(nil), a.Vars...),
		Kinds: append([]store.VarKind(nil), a.Kinds...),
	}
	type sharedCol struct{ ca, cb int }
	var shared []sharedCol
	var bOnly []int
	for j, v := range b.Vars {
		if c := a.col(v); c >= 0 {
			if a.Kinds[c] != b.Kinds[j] {
				return nil, fmt.Errorf("oracle: join kind conflict on ?%s", v)
			}
			shared = append(shared, sharedCol{c, j})
		} else {
			bOnly = append(bOnly, j)
			out.Vars = append(out.Vars, v)
			out.Kinds = append(out.Kinds, b.Kinds[j])
		}
	}
	seen := map[string]struct{}{}
	add := func(row []uint32) {
		key := fmt.Sprint(row)
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		out.Rows = append(out.Rows, row)
	}
	for _, ra := range a.Rows {
		matched := false
		for _, rb := range b.Rows {
			if err := e.charge(1); err != nil {
				return nil, err
			}
			compatible := true
			for _, s := range shared {
				av, bv := ra[s.ca], rb[s.cb]
				if av != store.NullID && bv != store.NullID && av != bv {
					compatible = false
					break
				}
			}
			if !compatible {
				continue
			}
			matched = true
			row := append([]uint32(nil), ra...)
			for _, s := range shared {
				if row[s.ca] == store.NullID {
					row[s.ca] = rb[s.cb]
				}
			}
			for _, j := range bOnly {
				row = append(row, rb[j])
			}
			add(row)
		}
		if leftOuter && !matched {
			row := append([]uint32(nil), ra...)
			for range bOnly {
				row = append(row, store.NullID)
			}
			add(row)
		}
	}
	return e.checkLimit(out.sortColumns())
}

// union merges the arms over the union of their schemas, padding variables
// an arm does not bind with NullID; a kind conflict across arms is an error,
// mirroring the engine. Rows are distinct.
func (e *genEval) union(arms []*Bindings) (*Bindings, error) {
	out := &Bindings{}
	for _, arm := range arms {
		for j, v := range arm.Vars {
			if c := out.col(v); c >= 0 {
				if out.Kinds[c] != arm.Kinds[j] {
					return nil, fmt.Errorf("oracle: union kind conflict on ?%s", v)
				}
			} else {
				out.Vars = append(out.Vars, v)
				out.Kinds = append(out.Kinds, arm.Kinds[j])
			}
		}
	}
	seen := map[string]struct{}{}
	for _, arm := range arms {
		cols := make([]int, len(out.Vars))
		for i, v := range out.Vars {
			cols[i] = arm.col(v)
		}
		for _, r := range arm.Rows {
			if err := e.charge(1); err != nil {
				return nil, err
			}
			row := make([]uint32, len(out.Vars))
			for i, c := range cols {
				if c < 0 {
					row[i] = store.NullID
				} else {
					row[i] = r[c]
				}
			}
			key := fmt.Sprint(row)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out.Rows = append(out.Rows, row)
		}
	}
	return e.checkLimit(out.sortColumns())
}

// filter keeps the rows on which every expression evaluates to true under
// SPARQL three-valued logic (an error drops the row). Null and absent
// columns read as unbound; values resolve through the graph dictionaries by
// column kind.
func (e *genEval) filter(b *Bindings, exprs []sparql.Expr) (*Bindings, error) {
	if len(exprs) == 0 {
		return b, nil
	}
	out := &Bindings{Vars: b.Vars, Kinds: b.Kinds}
	for _, r := range b.Rows {
		row := r
		env := func(name string) (string, bool) {
			c := b.col(name)
			if c < 0 || row[c] == store.NullID {
				return "", false
			}
			if b.Kinds[c] == store.KindProperty {
				return e.g.Properties.String(row[c]), true
			}
			return e.g.Vertices.String(row[c]), true
		}
		keep := true
		for _, ex := range exprs {
			if v, ok := sparql.EvalExpr(ex, env); !ok || !v {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// path evaluates a property-path pattern with the shared semantics
// (DESIGN.md §15): rel(<p>) is the live edge set, '|' union, '+' transitive
// closure, '?'/'*' additionally admit zero-length matches binding a vertex
// to itself iff it occurs in at least one live triple.
func (e *genEval) path(pp *sparql.PathPattern) (*Bindings, error) {
	sConst, oConst := !pp.S.IsVar, !pp.O.IsVar
	var sID, oID uint32
	var sKnown, oKnown bool
	if sConst {
		sID, sKnown = e.g.Vertices.Lookup(pp.S.Value)
	}
	if oConst {
		oID, oKnown = e.g.Vertices.Lookup(pp.O.Value)
	}

	switch {
	case sConst && oConst:
		out := &Bindings{}
		if !sKnown || !oKnown {
			return out, nil
		}
		reach, err := e.reach(pp.Path, sID, true)
		if err != nil {
			return nil, err
		}
		if reach[oID] {
			out.Rows = [][]uint32{{}}
		}
		return out, nil

	case sConst: // S const, O var
		out := &Bindings{Vars: []string{pp.O.Value}, Kinds: []store.VarKind{store.KindVertex}}
		if !sKnown {
			return out, nil
		}
		reach, err := e.reach(pp.Path, sID, true)
		if err != nil {
			return nil, err
		}
		for o := range reach {
			out.Rows = append(out.Rows, []uint32{o})
		}
		sortRows(out.Rows)
		return e.checkLimit(out)

	case oConst: // S var, O const: walk backwards
		out := &Bindings{Vars: []string{pp.S.Value}, Kinds: []store.VarKind{store.KindVertex}}
		if !oKnown {
			return out, nil
		}
		reach, err := e.reach(pp.Path, oID, false)
		if err != nil {
			return nil, err
		}
		for s := range reach {
			out.Rows = append(out.Rows, []uint32{s})
		}
		sortRows(out.Rows)
		return e.checkLimit(out)
	}

	// Both endpoints variable: close from every live vertex.
	sameVar := pp.S.Value == pp.O.Value
	var out *Bindings
	if sameVar {
		out = &Bindings{Vars: []string{pp.S.Value}, Kinds: []store.VarKind{store.KindVertex}}
	} else {
		out = &Bindings{
			Vars:  []string{pp.S.Value, pp.O.Value},
			Kinds: []store.VarKind{store.KindVertex, store.KindVertex},
		}
	}
	for _, s := range e.liveVertices() {
		reach, err := e.reach(pp.Path, s, true)
		if err != nil {
			return nil, err
		}
		for o := range reach {
			if sameVar {
				if o == s {
					out.Rows = append(out.Rows, []uint32{s})
				}
				continue
			}
			out.Rows = append(out.Rows, []uint32{s, o})
		}
	}
	return e.checkLimit(out.sortColumns())
}

// reach returns the vertices related to v by the path (forward: v as
// subject). A zero-length self-match is pruned when v occurs in no live
// triple.
func (e *genEval) reach(p *sparql.Path, v uint32, fwd bool) (map[uint32]bool, error) {
	out := map[uint32]bool{}
	if err := e.pathStep(p, v, fwd, func(u uint32) { out[u] = true }); err != nil {
		return nil, err
	}
	if out[v] && !e.occursLive(v) {
		delete(out, v)
	}
	return out, nil
}

// pathStep enumerates every vertex one rel(p)-application away from v, with
// repetitions (callers dedup) — the naive scan-everything mirror of the
// coordinator's path closure (cluster's distPath).
func (e *genEval) pathStep(p *sparql.Path, v uint32, fwd bool, yield func(uint32)) error {
	switch p.Kind {
	case sparql.PathIRI:
		pid, ok := e.g.Properties.Lookup(p.IRI)
		if !ok {
			return nil
		}
		scanned := 0
		for i, t := range e.g.Triples() {
			if !e.g.TripleLive(int32(i)) || uint32(t.P) != pid {
				continue
			}
			scanned++
			if fwd && uint32(t.S) == v {
				yield(uint32(t.O))
			} else if !fwd && uint32(t.O) == v {
				yield(uint32(t.S))
			}
		}
		return e.charge(scanned + 1)

	case sparql.PathAlt:
		for _, a := range p.Alts {
			if err := e.pathStep(a, v, fwd, yield); err != nil {
				return err
			}
		}
		return nil

	case sparql.PathMod:
		switch p.Mod {
		case '?':
			yield(v)
			return e.pathStep(p.Sub, v, fwd, yield)
		case '+', '*':
			visited := map[uint32]bool{}
			var queue []uint32
			push := func(w uint32) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
			if err := e.pathStep(p.Sub, v, fwd, push); err != nil {
				return err
			}
			for i := 0; i < len(queue); i++ {
				if err := e.charge(1); err != nil {
					return err
				}
				if err := e.pathStep(p.Sub, queue[i], fwd, push); err != nil {
					return err
				}
			}
			for _, u := range queue {
				yield(u)
			}
			if p.Mod == '*' && !visited[v] {
				yield(v)
			}
			return nil
		}
	}
	return fmt.Errorf("oracle: malformed path node")
}

// occursLive reports whether v occurs in a live triple.
func (e *genEval) occursLive(v uint32) bool {
	for i, t := range e.g.Triples() {
		if e.g.TripleLive(int32(i)) && (uint32(t.S) == v || uint32(t.O) == v) {
			return true
		}
	}
	return false
}

// liveVertices returns the distinct vertices occurring in live triples, in
// first-occurrence order.
func (e *genEval) liveVertices() []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for i, t := range e.g.Triples() {
		if !e.g.TripleLive(int32(i)) {
			continue
		}
		for _, v := range [2]uint32{uint32(t.S), uint32(t.O)} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}
