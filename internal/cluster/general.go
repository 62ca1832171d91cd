package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mpc/internal/obs"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// This file is the generalized-query evaluator: OPTIONAL, UNION, FILTER and
// property paths (DESIGN.md §15). The operator tree is folded at the
// coordinator; every BGP leaf is planned and executed through the unchanged
// Theorem 5 / Algorithm 2 machinery (runBGPPlan), so the paper's pipeline
// remains the inner loop. Operator results use set semantics over full
// bindings — exactly what the BGP pipeline produces — with OPTIONAL/UNION
// introducing store.NullID cells that never cross the wire: sites only ever
// evaluate BGPs.

// genExec is one generalized execution: shared context, trace and the
// Stats value that leaf plans and operators accumulate into.
type genExec struct {
	c     *Cluster
	ctx   context.Context
	rs    *readState
	tr    *obs.Trace
	stats *Stats
}

// runGeneral evaluates a generalized query's operator tree. The caller
// holds stateMu.RLock (ExecutePlan), which site calls release and
// re-validate against rs's version (siteCall), so every leaf plan built
// here sees the same cluster state. The result carries full bindings; the
// caller projects.
func (c *Cluster) runGeneral(ctx context.Context, rs *readState, q *sparql.Query, tr *obs.Trace, stats *Stats) (*store.Table, error) {
	ge := &genExec{c: c, ctx: ctx, rs: rs, tr: tr, stats: stats}
	tab, err := ge.eval(q.Where)
	if err != nil {
		return nil, err
	}
	// Filters attached to the query root (wire-delivered pushdowns) apply
	// to the final bindings.
	return ge.c.filterTable(tab, q.Filters), nil
}

// eval dispatches one operator-tree node.
func (ge *genExec) eval(p sparql.GraphPattern) (*store.Table, error) {
	if err := ge.ctx.Err(); err != nil {
		return nil, err
	}
	switch n := p.(type) {
	case *sparql.BGP:
		return ge.evalBGPLeaf(n, nil)
	case *sparql.PathPattern:
		return ge.evalPath(n)
	case *sparql.Optional:
		// A bare OPTIONAL evaluates as a group of one: LeftJoin against the
		// identity, so an empty inner pattern still yields one all-null row.
		return ge.evalGroup(&sparql.Group{Parts: []sparql.GraphPattern{n}})
	case *sparql.Union:
		tabs := make([]*store.Table, len(n.Arms))
		for i, arm := range n.Arms {
			t, err := ge.eval(arm)
			if err != nil {
				return nil, err
			}
			tabs[i] = t
		}
		return unionMerge(tabs)
	case *sparql.Group:
		return ge.evalGroup(n)
	}
	return nil, fmt.Errorf("cluster: unknown pattern node %T", p)
}

// evalGroup folds the group's parts left to right in syntactic order —
// compatibility join for plain parts, left-outer join for OPTIONAL parts —
// and applies the group's FILTER constraints to the folded rows. Filter
// conjuncts whose variables are fully covered by one of the group's BGP
// leaves are pushed into that leaf (evaluated site-side inside the match
// recursion); pushing commutes with the fold because a BGP leaf never binds
// null and joins preserve the leaf's values on surviving rows.
func (ge *genExec) evalGroup(g *sparql.Group) (*store.Table, error) {
	var conjs []sparql.Expr
	for _, f := range g.Filters {
		conjs = append(conjs, sparql.SplitConjuncts(f)...)
	}
	pushed := make([][]sparql.Expr, len(g.Parts))
	var post []sparql.Expr
	for _, e := range conjs {
		vars := sparql.ExprVars(e)
		target := -1
		if len(vars) > 0 {
			for i, part := range g.Parts {
				bg, ok := part.(*sparql.BGP)
				if !ok {
					continue
				}
				if coveredBy(vars, bgpVarSet(bg)) {
					target = i
					break
				}
			}
		}
		if target >= 0 {
			pushed[target] = append(pushed[target], e)
		} else {
			post = append(post, e)
		}
	}

	acc := identityTable()
	for i, part := range g.Parts {
		var right *store.Table
		var err error
		leftOuter := false
		switch n := part.(type) {
		case *sparql.Optional:
			leftOuter = true
			right, err = ge.eval(n.Inner)
		case *sparql.BGP:
			right, err = ge.evalBGPLeaf(n, pushed[i])
		default:
			right, err = ge.eval(part)
		}
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		acc, err = joinCompat(acc, right, leftOuter, &ge.c.met)
		ge.stats.JoinTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
	}
	return ge.c.filterTable(acc, post), nil
}

// evalBGPLeaf plans and executes one conjunctive leaf through the standard
// pipeline. Pushed filter conjuncts are attached to every decomposition
// subquery whose variables cover them — those evaluate inside the site
// matchers — and any conjunct no subquery covers is applied to the joined
// leaf result here.
func (ge *genExec) evalBGPLeaf(bg *sparql.BGP, conjs []sparql.Expr) (*store.Table, error) {
	leaf := &sparql.Query{Patterns: bg.Patterns}
	p := ge.c.planLocked(leaf)
	ge.stats.NumSubqueries += len(p.Subs)
	ge.stats.DecompTime += p.DecompTime
	post := attachFilters(p.Subs, conjs)
	tab, err := ge.c.runBGPPlan(ge.ctx, ge.rs, p, ge.tr, ge.stats)
	if err != nil {
		return nil, err
	}
	return ge.c.filterTable(tab, post), nil
}

// filterTable keeps the rows on which every expression evaluates to true
// (SPARQL three-valued semantics: an error drops the row). Null and absent
// columns read as unbound; values resolve through the coordinator
// dictionaries by column kind.
func (c *Cluster) filterTable(t *store.Table, exprs []sparql.Expr) *store.Table {
	if len(exprs) == 0 || t.Len() == 0 {
		return t
	}
	g := c.layout.Graph()
	out := store.NewTable(t.Vars, t.Kinds)
	n := t.Len()
	for r := 0; r < n; r++ {
		env := func(name string) (string, bool) {
			c := t.Col(name)
			if c < 0 || t.IsNull(r, c) {
				return "", false
			}
			if t.Kinds[c] == store.KindProperty {
				return g.Properties.String(t.At(r, c)), true
			}
			return g.Vertices.String(t.At(r, c)), true
		}
		keep := true
		for _, e := range exprs {
			if v, ok := sparql.EvalExpr(e, env); !ok || !v {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		if len(t.Vars) == 0 {
			out.ZeroWidthRows++
		} else {
			out.Data = append(out.Data, t.Row(r)...)
		}
	}
	return out
}

// identityTable is the join identity: no columns, one row.
func identityTable() *store.Table {
	t := store.NewTable(nil, nil)
	t.ZeroWidthRows = 1
	return t
}

// bgpVarSet returns the variables a BGP leaf binds (property positions
// included).
func bgpVarSet(bg *sparql.BGP) map[string]bool {
	set := map[string]bool{}
	for _, tp := range bg.Patterns {
		for _, t := range []sparql.Term{tp.S, tp.P, tp.O} {
			if t.IsVar {
				set[t.Value] = true
			}
		}
	}
	return set
}

// coveredBy reports whether every variable is in the set.
func coveredBy(vars []string, set map[string]bool) bool {
	for _, v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}

// joinCompat is the solution-compatibility join: rows merge when every
// shared column is equal or null on at least one side, and a null shared
// cell takes the other side's value. With leftOuter, unmatched left rows
// survive with null right-only columns (OPTIONAL). Null-free inner joins
// take the allocation-free hashJoin fast path; otherwise the hash index is
// built over the null-free shared columns and nullable shared columns are
// verified per candidate. Output rows are deduplicated when nullable shared
// columns exist, since distinct row pairs can merge identically.
func joinCompat(a, b *store.Table, leftOuter bool, met *clusterMetrics) (*store.Table, error) {
	aNull, bNull := a.NullCols(), b.NullCols()
	if !leftOuter && aNull == 0 && bNull == 0 {
		return hashJoin(a, b, met)
	}
	var cleanA, cleanB, dirtyA, dirtyB []int
	for cb, v := range b.Vars {
		ca := a.Col(v)
		if ca < 0 {
			continue
		}
		if a.Kinds[ca] != b.Kinds[cb] {
			return nil, fmt.Errorf("cluster: variable ?%s has conflicting kinds across operands", v)
		}
		nullable := ca < 64 && aNull&(1<<uint(ca)) != 0 ||
			cb < 64 && bNull&(1<<uint(cb)) != 0 ||
			ca >= 64 || cb >= 64
		if nullable {
			dirtyA = append(dirtyA, ca)
			dirtyB = append(dirtyB, cb)
		} else {
			cleanA = append(cleanA, ca)
			cleanB = append(cleanB, cb)
		}
	}
	vars := append([]string(nil), a.Vars...)
	kinds := append([]store.VarKind(nil), a.Kinds...)
	var bExtra []int
	for cb, v := range b.Vars {
		if a.Col(v) < 0 {
			bExtra = append(bExtra, cb)
			vars = append(vars, v)
			kinds = append(kinds, b.Kinds[cb])
		}
	}
	out := store.NewTable(vars, kinds)
	exact := len(cleanA) <= 2
	idx := buildIndex(b, cleanB, exact)
	aN, bN := a.Len(), b.Len()
	if leftOuter {
		// A left join emits at least one row per left row.
		out.Grow(aN)
	}
	outRows := 0
	for ra := 0; ra < aN; ra++ {
		matched := false
		k := rowKeyOn(a, ra, cleanA, exact)
		for rb := idx.first(k); rb >= 0; rb = idx.next[rb] {
			if !exact && !equalOn(a, ra, cleanA, b, int(rb), cleanB) {
				continue
			}
			compatible := true
			for i, ca := range dirtyA {
				av, bv := a.At(ra, ca), b.At(int(rb), dirtyB[i])
				if av != store.NullID && bv != store.NullID && av != bv {
					compatible = false
					break
				}
			}
			if !compatible {
				continue
			}
			matched = true
			start := len(out.Data)
			out.Data = append(out.Data, a.Row(ra)...)
			for i, ca := range dirtyA {
				if out.Data[start+ca] == store.NullID {
					out.Data[start+ca] = b.At(int(rb), dirtyB[i])
				}
			}
			for _, cb := range bExtra {
				out.Data = append(out.Data, b.At(int(rb), cb))
			}
			outRows++
		}
		if leftOuter && !matched {
			out.Data = append(out.Data, a.Row(ra)...)
			for range bExtra {
				out.Data = append(out.Data, store.NullID)
			}
			outRows++
		}
	}
	if out.Stride() == 0 {
		out.ZeroWidthRows = outRows
	}
	met.observeJoin(min(aN, bN), max(aN, bN), out.Len())
	if len(dirtyA) > 0 {
		return dedupTable(out)
	}
	return out, nil
}

// unionMerge unions arm tables under the canonical merged schema: the
// variables of all arms in first-appearance order, with arms that do not
// bind a variable contributing NullID in its column. A variable bound as a
// vertex in one arm and as a property in another has no common dictionary
// and is rejected. Rows are deduplicated (set semantics).
func unionMerge(tables []*store.Table) (*store.Table, error) {
	var vars []string
	var kinds []store.VarKind
	col := map[string]int{}
	for _, t := range tables {
		for i, v := range t.Vars {
			if j, ok := col[v]; ok {
				if kinds[j] != t.Kinds[i] {
					return nil, fmt.Errorf("cluster: union arms bind ?%s with conflicting kinds", v)
				}
				continue
			}
			col[v] = len(vars)
			vars = append(vars, v)
			kinds = append(kinds, t.Kinds[i])
		}
	}
	out := store.NewTable(vars, kinds)
	w := len(vars)
	if w == 0 {
		for _, t := range tables {
			if t.Len() > 0 {
				out.ZeroWidthRows = 1
				break
			}
		}
		return out, nil
	}
	rows := 0
	for _, t := range tables {
		rows += t.Len()
	}
	out.Grow(rows)
	row := make([]uint32, w)
	for _, t := range tables {
		cm := make([]int, w)
		for j, v := range vars {
			cm[j] = t.Col(v)
		}
		n := t.Len()
		for r := 0; r < n; r++ {
			for j, c := range cm {
				if c < 0 {
					row[j] = store.NullID
				} else {
					row[j] = t.At(r, c)
				}
			}
			out.Data = append(out.Data, row...)
		}
	}
	return dedupTable(out)
}

// dedupTable removes duplicate rows (unionTables over a single table).
func dedupTable(t *store.Table) (*store.Table, error) {
	return unionTables([]*store.Table{t})
}

// evalPath evaluates a property-path leaf and returns its rows in the
// canonical sorted order: closures enumerate reach sets in map order, which
// would otherwise order identical row sets differently — sorting keeps
// generalized results bit-identical across runs and transports, like the BGP
// pipeline.
func (ge *genExec) evalPath(pp *sparql.PathPattern) (*store.Table, error) {
	tab, err := ge.evalPathNode(pp)
	if err != nil {
		return nil, err
	}
	tab.SortRows()
	return tab, nil
}

// evalPathNode evaluates a property-path leaf. Single-IRI paths lower to
// plain triple patterns and alternatives to unions of their arms, so only
// modified paths ('?', '*', '+') need closure machinery, and every cluster
// closes them at the coordinator through its sites (distPath): an
// in-process cluster sends exactly the site calls its rebuild over remote
// sites sends.
func (ge *genExec) evalPathNode(pp *sparql.PathPattern) (*store.Table, error) {
	switch pp.Path.Kind {
	case sparql.PathIRI:
		return ge.evalBGPLeaf(&sparql.BGP{Patterns: []sparql.TriplePattern{
			{S: pp.S, P: sparql.Const(pp.Path.IRI), O: pp.O},
		}}, nil)
	case sparql.PathAlt:
		tabs := make([]*store.Table, len(pp.Path.Alts))
		for i, alt := range pp.Path.Alts {
			t, err := ge.evalPath(&sparql.PathPattern{S: pp.S, Path: alt, O: pp.O})
			if err != nil {
				return nil, err
			}
			tabs[i] = t
		}
		return unionMerge(tabs)
	}
	return newDistPath(ge, pathBudget).eval(pp)
}

// ErrPathBudget reports that a property-path closure exceeded its work
// budget (fetched edges, frontier probes and closure expansions). Callers
// surface it like the oracle's "too large" condition rather than returning
// a partial relation.
var ErrPathBudget = errors.New("cluster: path evaluation budget exceeded")

// pathBudget bounds the work of one property-path closure.
const pathBudget = 1 << 22

// distPath closes one modified path at the coordinator. Bounded endpoints
// with a flat base (IRIs and alternatives only) expand by iterated frontier
// exchange: each BFS level becomes one round of single-pattern subqueries —
// one per (frontier vertex, property) — fanned out through evalPerSub,
// which batches all of a level's probes per site into the existing v3
// batch exchange. Everything else fetches each property's edge relation
// once through the distributed pipeline and closes locally. Semantics
// (DESIGN.md §15): rel(<p>) is the live edge set of p; '|' is union; '+' is
// the transitive closure; '?' and '*' additionally admit zero-length
// matches, which bind a vertex to itself iff it occurs in a live triple
// (judged against the coordinator graph). Every step charges the shared
// budget, and exhausting it fails the closure with ErrPathBudget.
type distPath struct {
	ge     *genExec
	budget int
	fwd    map[string]map[uint32][]uint32 // prop → subject → objects
	bwd    map[string]map[uint32][]uint32 // prop → object → subjects
}

func newDistPath(ge *genExec, budget int) *distPath {
	return &distPath{
		ge:     ge,
		budget: budget,
		fwd:    map[string]map[uint32][]uint32{},
		bwd:    map[string]map[uint32][]uint32{},
	}
}

// eval returns one row per distinct endpoint binding, with the column
// conventions of a BGP leaf (variable endpoints only; a fully constant
// pattern yields a zero-width table whose row count is 0 or 1).
func (e *distPath) eval(pp *sparql.PathPattern) (*store.Table, error) {
	g := e.ge.c.layout.Graph()
	sConst, oConst := !pp.S.IsVar, !pp.O.IsVar
	var sID, oID uint32
	var sKnown, oKnown bool
	if sConst {
		sID, sKnown = g.Vertices.Lookup(pp.S.Value)
	}
	if oConst {
		oID, oKnown = g.Vertices.Lookup(pp.O.Value)
	}

	switch {
	case sConst && oConst:
		out := store.NewTable(nil, nil)
		if !sKnown || !oKnown {
			return out, nil
		}
		reach, err := e.rootReach(pp.Path, sID, true)
		if err != nil {
			return nil, err
		}
		if reach[oID] {
			out.ZeroWidthRows = 1
		}
		return out, nil

	case sConst:
		out := store.NewTable([]string{pp.O.Value}, []store.VarKind{store.KindVertex})
		if !sKnown {
			return out, nil
		}
		reach, err := e.rootReach(pp.Path, sID, true)
		if err != nil {
			return nil, err
		}
		for o := range reach {
			out.AppendRow(o)
		}
		return out, nil

	case oConst:
		out := store.NewTable([]string{pp.S.Value}, []store.VarKind{store.KindVertex})
		if !oKnown {
			return out, nil
		}
		reach, err := e.rootReach(pp.Path, oID, false)
		if err != nil {
			return nil, err
		}
		for s := range reach {
			out.AppendRow(s)
		}
		return out, nil
	}

	// Both endpoints variable: close from every vertex of the global live
	// domain. Edge relations are fetched once and shared across sources.
	sameVar := pp.S.Value == pp.O.Value
	var out *store.Table
	if sameVar {
		out = store.NewTable([]string{pp.S.Value}, []store.VarKind{store.KindVertex})
	} else {
		out = store.NewTable([]string{pp.S.Value, pp.O.Value}, []store.VarKind{store.KindVertex, store.KindVertex})
	}
	sources, err := e.liveDomain()
	if err != nil {
		return nil, err
	}
	for _, s := range sources {
		reach, err := e.reach(pp.Path, s, true)
		if err != nil {
			return nil, err
		}
		for o := range reach {
			if sameVar {
				if o == s {
					out.AppendRow(s)
				}
				continue
			}
			out.AppendRow(s, o)
		}
	}
	return out, nil
}

func (e *distPath) charge(n int) error {
	e.budget -= n
	if e.budget < 0 {
		return ErrPathBudget
	}
	return nil
}

// relation fetches property prop's full live edge set through the
// distributed pipeline (one plan per property per query) and indexes it
// both ways.
func (e *distPath) relation(prop string) error {
	if _, ok := e.fwd[prop]; ok {
		return nil
	}
	tab, err := e.ge.evalBGPLeaf(&sparql.BGP{Patterns: []sparql.TriplePattern{
		{S: sparql.Var("s"), P: sparql.Const(prop), O: sparql.Var("o")},
	}}, nil)
	if err != nil {
		return err
	}
	if err := e.charge(tab.Len()); err != nil {
		return err
	}
	f := map[uint32][]uint32{}
	b := map[uint32][]uint32{}
	cs, co := tab.Col("s"), tab.Col("o")
	n := tab.Len()
	for r := 0; r < n; r++ {
		s, o := tab.At(r, cs), tab.At(r, co)
		f[s] = append(f[s], o)
		b[o] = append(b[o], s)
	}
	e.fwd[prop], e.bwd[prop] = f, b
	return nil
}

// rootReach is reach with the frontier-exchange fast path: a top-level
// closure from a bound endpoint over a flat base expands level by level
// through batched point subqueries instead of materializing relations.
func (e *distPath) rootReach(p *sparql.Path, v uint32, fwd bool) (map[uint32]bool, error) {
	if p.Kind == sparql.PathMod && (p.Mod == '+' || p.Mod == '*') {
		if props := flatProps(p.Sub); props != nil {
			out, err := e.frontierClosure(v, props, fwd)
			if err != nil {
				return nil, err
			}
			if p.Mod == '*' && !out[v] && e.occursLive(v) {
				out[v] = true
			}
			return out, nil
		}
	}
	return e.reach(p, v, fwd)
}

// reach returns the set of vertices related to v by the path (forward: v
// as subject; backward: v as object). Zero-length self-matches are pruned
// when v occurs in no live triple: such a vertex has no edges, so a
// self-entry can only have come from the identity component.
func (e *distPath) reach(p *sparql.Path, v uint32, fwd bool) (map[uint32]bool, error) {
	out := map[uint32]bool{}
	if err := e.step(p, v, fwd, func(u uint32) { out[u] = true }); err != nil {
		return nil, err
	}
	if out[v] && !e.occursLive(v) {
		delete(out, v)
	}
	return out, nil
}

// step enumerates every vertex one rel(p)-application away from v, possibly
// with repetitions (callers dedup), answering PathIRI steps from fetched
// relations.
func (e *distPath) step(p *sparql.Path, v uint32, fwd bool, yield func(uint32)) error {
	switch p.Kind {
	case sparql.PathIRI:
		if err := e.relation(p.IRI); err != nil {
			return err
		}
		rel := e.fwd[p.IRI]
		if !fwd {
			rel = e.bwd[p.IRI]
		}
		outs := rel[v]
		if err := e.charge(len(outs) + 1); err != nil {
			return err
		}
		for _, u := range outs {
			yield(u)
		}
		return nil

	case sparql.PathAlt:
		for _, a := range p.Alts {
			if err := e.step(a, v, fwd, yield); err != nil {
				return err
			}
		}
		return nil

	case sparql.PathMod:
		switch p.Mod {
		case '?':
			yield(v)
			return e.step(p.Sub, v, fwd, yield)
		case '+', '*':
			visited := map[uint32]bool{}
			var queue []uint32
			push := func(w uint32) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
			if err := e.step(p.Sub, v, fwd, push); err != nil {
				return err
			}
			for i := 0; i < len(queue); i++ {
				if err := e.charge(1); err != nil {
					return err
				}
				if err := e.step(p.Sub, queue[i], fwd, push); err != nil {
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
	return fmt.Errorf("cluster: malformed path node")
}

// frontierClosure BFS-expands from start, one batched exchange per level.
// The returned set holds every vertex reached by >= 1 application (start
// included only via a cycle, matching '+').
func (e *distPath) frontierClosure(start uint32, props []string, fwd bool) (map[uint32]bool, error) {
	visited := map[uint32]bool{}
	frontier := []uint32{start}
	for len(frontier) > 0 {
		if err := e.charge(len(frontier)); err != nil {
			return nil, err
		}
		dsts, err := e.expand(frontier, props, fwd)
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, d := range dsts {
			if !visited[d] {
				visited[d] = true
				frontier = append(frontier, d)
			}
		}
	}
	return visited, nil
}

// expand runs one frontier level: a single-pattern point subquery per
// (vertex, property), all planned individually (so localization and VP
// routing apply) and executed in one evalPerSub fan-out, which coalesces
// the probes landing on each batch-capable site into one exchange.
func (e *distPath) expand(vs []uint32, props []string, fwd bool) ([]uint32, error) {
	g := e.ge.c.layout.Graph()
	var subs []*sparql.Query
	var sites [][]int
	var anchors []string
	for _, v := range vs {
		name := g.Vertices.String(v)
		for _, prop := range props {
			var tp sparql.TriplePattern
			if fwd {
				tp = sparql.TriplePattern{S: sparql.Const(name), P: sparql.Const(prop), O: sparql.Var("o")}
			} else {
				tp = sparql.TriplePattern{S: sparql.Var("o"), P: sparql.Const(prop), O: sparql.Const(name)}
			}
			q := &sparql.Query{Patterns: []sparql.TriplePattern{tp}}
			lp := e.ge.c.planLocked(q)
			e.ge.stats.NumSubqueries += len(lp.Subs)
			subs = append(subs, lp.Subs...)
			sites = append(sites, lp.SitesPerSub...)
			for si := range lp.Subs {
				anchors = append(anchors, lp.anchor(si))
			}
		}
	}
	sp := e.ge.tr.Root().Child("path_frontier")
	sp.SetAttr("subqueries", int64(len(subs)))
	t0 := time.Now()
	tables, wire, err := e.ge.c.evalPerSub(e.ge.ctx, e.ge.rs, subs, sites, anchors, sp)
	sp.End()
	if err != nil {
		return nil, err
	}
	e.ge.stats.LocalTime += time.Since(t0)
	e.ge.stats.BytesShipped += wire.BytesShipped
	e.ge.stats.WireTime += wire.WireTime
	var out []uint32
	for _, tab := range tables {
		if err := e.charge(tab.Len()); err != nil {
			return nil, err
		}
		e.ge.stats.TuplesShipped += tab.Len()
		c := tab.Col("o")
		if c < 0 {
			continue
		}
		n := tab.Len()
		for r := 0; r < n; r++ {
			out = append(out, tab.At(r, c))
		}
	}
	return out, nil
}

// occursLive reports whether v occurs in a live triple of the whole graph,
// judged against the coordinator's adjacency index.
func (e *distPath) occursLive(v uint32) bool {
	g := e.ge.c.layout.Graph()
	for _, a := range g.Adj(rdf.VertexID(v)) {
		if g.TripleLive(a.Triple) {
			return true
		}
	}
	return false
}

// liveDomain returns the distinct vertices occurring in live triples of the
// whole graph, charging the scan.
func (e *distPath) liveDomain() ([]uint32, error) {
	g := e.ge.c.layout.Graph()
	live := g.LiveTriples()
	if err := e.charge(len(live)); err != nil {
		return nil, err
	}
	seen := map[uint32]bool{}
	var out []uint32
	for _, i := range live {
		tr := g.Triple(i)
		for _, v := range [2]uint32{uint32(tr.S), uint32(tr.O)} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out, nil
}

// flatProps returns the property IRIs of a path consisting solely of IRIs
// and alternatives (no nested modifiers), or nil when the path is deeper.
func flatProps(p *sparql.Path) []string {
	switch p.Kind {
	case sparql.PathIRI:
		return []string{p.IRI}
	case sparql.PathAlt:
		var out []string
		for _, a := range p.Alts {
			sub := flatProps(a)
			if sub == nil {
				return nil
			}
			out = append(out, sub...)
		}
		return out
	}
	return nil
}
