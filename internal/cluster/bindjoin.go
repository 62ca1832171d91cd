package cluster

import (
	"context"
	"slices"
	"time"

	"mpc/internal/obs"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// bindLimit is the most distinct values of one variable the bound round
// instantiates a subquery for. Above it the subquery runs unbound: each
// instance costs a subquery encode, a site-side compile and an index seek,
// which stops paying once the unbound scan is no longer far larger than
// the instance count. Chosen by measurement on watdiv_uncached
// (CHANGES.md): 16, 64 and 256 gave the same throughput within noise, and
// the middle value bounds a bound round at 64 instances per subquery.
const bindLimit = 64

// evalSubs evaluates a plan's subqueries and returns one table per
// subquery, in plan order. IEQ plans, and plans whose subqueries are all
// (or none) anchored, take one round: every subquery at its plan sites.
// Other plans take two rounds:
//
//   - Round 1 (anchored) evaluates the subqueries with a constant subject
//     or object. If any returns no rows, the join is empty: every other
//     subquery gets a typed empty table and no site is called.
//   - Round 2 (bound) evaluates the rest in one batched fan-out. A subquery
//     sharing a vertex variable with a round-1 table that holds at most
//     bindLimit distinct values for it is instantiated once per value, and
//     each instance goes only to the sites its own localization proof
//     allows within the subquery's plan sites. The coordinator adds the
//     bound column back, so the tables joinAll sees have the unbound
//     subquery's schema and rows (restricted to values that can join).
//
// The plan is not changed: which variable is bound, and to what, is
// decided here from round-1 data under the caller's state read lock, which
// each round's site calls release and re-validate (siteCall).
func (c *Cluster) evalSubs(ctx context.Context, rs *readState, p *Plan, tr *obs.Trace, stats *Stats) ([]*store.Table, error) {
	var anchored []int
	if !p.Independent {
		for si, sub := range p.Subs {
			if hasConstVertex(sub) {
				anchored = append(anchored, si)
			}
		}
	}
	if len(anchored) == 0 || len(anchored) == len(p.Subs) {
		return c.evalRound(ctx, rs, "local", p.Subs, p.SitesPerSub, p.Anchors, tr, stats)
	}

	// Round 1: the anchored subqueries.
	subs := make([]*sparql.Query, len(anchored))
	sites := make([][]int, len(anchored))
	anchors := make([]string, len(anchored))
	for i, si := range anchored {
		subs[i], sites[i], anchors[i] = p.Subs[si], p.SitesPerSub[si], p.anchor(si)
	}
	first, err := c.evalRound(ctx, rs, "local", subs, sites, anchors, tr, stats)
	if err != nil {
		return nil, err
	}
	tables := make([]*store.Table, len(p.Subs))
	empty := false
	for i, si := range anchored {
		tables[si] = first[i]
		empty = empty || first[i].Len() == 0
	}
	if empty {
		for si, sub := range p.Subs {
			if tables[si] == nil {
				tables[si] = emptyTableFor(sub)
			}
		}
		return tables, nil
	}

	// Round 2: every other subquery, bound where a round-1 table is small.
	// at[si] is the first entry of plan subquery si in subs; a bound
	// subquery owns one entry per value.
	type bound struct {
		v    string   // the bound variable
		vals []uint32 // its values, one instance each
	}
	binds := map[int]bound{}
	at := make([]int, len(p.Subs))
	subs, sites, anchors = nil, nil, nil
	g := c.layout.Graph()
	for si, sub := range p.Subs {
		if tables[si] != nil {
			continue
		}
		at[si] = len(subs)
		v, vals := bindChoice(sub, first)
		if v == "" {
			subs = append(subs, sub)
			sites = append(sites, p.SitesPerSub[si])
			anchors = append(anchors, p.anchor(si))
			continue
		}
		binds[si] = bound{v, vals}
		// An instance keeps its template's anchor unless that is the
		// variable it binds; then it has none.
		anchor := p.anchor(si)
		if anchor == v {
			anchor = ""
		}
		var a sparql.Analysis
		if c.crossing != nil {
			a = sparql.Analyze(sub, c.crossing)
		}
		for _, val := range vals {
			name := g.Vertices.String(val)
			subs = append(subs, instantiate(sub, v, name))
			sites = append(sites, c.narrowSites(a, v, name, p.SitesPerSub[si]))
			anchors = append(anchors, anchor)
		}
	}
	second, err := c.evalRound(ctx, rs, "bind", subs, sites, anchors, tr, stats)
	if err != nil {
		return nil, err
	}
	for si, sub := range p.Subs {
		if tables[si] != nil {
			continue
		}
		if b, ok := binds[si]; ok {
			tables[si] = addBoundColumn(sub, b.v, b.vals, second[at[si]:at[si]+len(b.vals)])
		} else {
			tables[si] = second[at[si]]
		}
	}
	return tables, nil
}

// evalRound is one batched fan-out of evalPerSub, timed into stats under
// a trace span of the given name.
func (c *Cluster) evalRound(ctx context.Context, rs *readState, name string, subs []*sparql.Query, sites [][]int, anchors []string, tr *obs.Trace, stats *Stats) ([]*store.Table, error) {
	t0 := time.Now()
	sp := tr.Root().Child(name)
	tables, wire, err := c.evalPerSub(ctx, rs, subs, sites, anchors, sp)
	sp.End()
	if err != nil {
		return nil, err
	}
	stats.LocalTime += time.Since(t0)
	stats.BytesShipped += wire.BytesShipped
	stats.WireTime += wire.WireTime
	return tables, nil
}

// hasConstVertex reports whether some pattern has a constant subject or
// object.
func hasConstVertex(q *sparql.Query) bool {
	for _, tp := range q.Patterns {
		if !tp.S.IsVar || !tp.O.IsVar {
			return true
		}
	}
	return false
}

// bindChoice picks the variable of sub to bind from the round-1 tables and
// the values to bind it to: among sub's variables that occur only in
// subject/object position and that no pushed FILTER names, the one whose
// round-1 value set is smallest, if that set has at most bindLimit values
// (ties go to the earlier variable in sorted order). The set is the
// intersection over every round-1 table binding the variable, since a
// joined row must agree with all of them; it may be empty, and then the
// subquery's part of the join is empty. An empty name means run unbound.
func bindChoice(sub *sparql.Query, first []*store.Table) (string, []uint32) {
	var best string
	var bestVals []uint32
	for _, v := range bindableVars(sub) {
		var vals []uint32
		small := false
		for _, t := range first {
			col := t.Col(v)
			if col < 0 || t.Kinds[col] != store.KindVertex {
				continue
			}
			if d, ok := distinctUpTo(t, col, bindLimit); ok && (!small || len(d) < len(vals)) {
				vals, small = d, true
			}
		}
		if !small || (best != "" && len(vals) >= len(bestVals)) {
			continue
		}
		for _, t := range first {
			col := t.Col(v)
			if col < 0 || t.Kinds[col] != store.KindVertex {
				continue
			}
			vals = keepPresent(vals, t, col)
		}
		best, bestVals = v, vals
	}
	return best, bestVals
}

// bindableVars returns sub's variables, sorted, that occur only in
// subject/object position and are not named by any of sub's filters. A
// property-position variable lives in the other dictionary; a filtered
// variable would vanish from the filter's scope once replaced.
func bindableVars(sub *sparql.Query) []string {
	skip := map[string]bool{}
	for _, tp := range sub.Patterns {
		if tp.P.IsVar {
			skip[tp.P.Value] = true
		}
	}
	for _, e := range sub.Filters {
		for _, v := range sparql.ExprVars(e) {
			skip[v] = true
		}
	}
	var out []string
	for _, v := range sub.Vars() {
		if !skip[v] {
			out = append(out, v)
		}
	}
	return out
}

// distinctUpTo returns column col's distinct values, sorted, or false as
// soon as there are more than limit of them.
func distinctUpTo(t *store.Table, col, limit int) ([]uint32, bool) {
	var vals []uint32
	n := t.Len()
	for r := 0; r < n; r++ {
		v := t.At(r, col)
		if slices.Contains(vals, v) {
			continue
		}
		if len(vals) == limit {
			return nil, false
		}
		vals = append(vals, v)
	}
	slices.Sort(vals)
	return vals, true
}

// keepPresent filters the sorted vals, in place, to those occurring in
// column col of t.
func keepPresent(vals []uint32, t *store.Table, col int) []uint32 {
	seen := make([]bool, len(vals))
	n := t.Len()
	for r := 0; r < n; r++ {
		if i, ok := slices.BinarySearch(vals, t.At(r, col)); ok {
			seen[i] = true
		}
	}
	out := vals[:0]
	for i, v := range vals {
		if seen[i] {
			out = append(out, v)
		}
	}
	return out
}

// instantiate returns sub with every occurrence of variable v replaced by
// the constant value (a vertex dictionary string, which the sites' Lookup
// maps back to the same ID) and v dropped from the projection.
func instantiate(sub *sparql.Query, v, value string) *sparql.Query {
	inst := &sparql.Query{
		Patterns: make([]sparql.TriplePattern, len(sub.Patterns)),
		Filters:  sub.Filters,
	}
	c := sparql.Const(value)
	for i, tp := range sub.Patterns {
		if tp.S.IsVar && tp.S.Value == v {
			tp.S = c
		}
		if tp.O.IsVar && tp.O.Value == v {
			tp.O = c
		}
		inst.Patterns[i] = tp
	}
	for _, s := range sub.Select {
		if s != v {
			inst.Select = append(inst.Select, s)
		}
	}
	return inst
}

// narrowSites is where one instance of a plan subquery runs, the
// subquery's variable v bound to value: the sites its own localization
// proof (Theorems 3/4) allows, within the subquery's plan sites. a is the
// subquery's analysis, bound per instance without a new pass
// (sparql.Analysis.Bind). The list only ever shrinks, so an edge-disjoint
// (VP) or unlocalizable instance keeps its subquery's sites.
func (c *Cluster) narrowSites(a sparql.Analysis, v, value string, planSites []int) []int {
	if c.crossing == nil {
		return planSites
	}
	bound := a.Bind(v, value)
	home := c.localizeSites(&bound)
	out := make([]int, 0, len(home))
	for _, s := range planSites {
		if slices.Contains(home, s) {
			out = append(out, s)
		}
	}
	return out
}

// addBoundColumn reassembles a bound subquery's table from its instance
// tables (one per value, in vals order): each instance row gains the bound
// column v, and the columns take the order the sites' matcher gives the
// unbound subquery — variables in first-appearance order. Distinct values
// make the instances' rows disjoint, so the result is duplicate-free.
func addBoundColumn(sub *sparql.Query, v string, vals []uint32, parts []*store.Table) *store.Table {
	var vars []string
	var kinds []store.VarKind
	seen := map[string]bool{}
	add := func(t sparql.Term, kind store.VarKind) {
		if t.IsVar && !seen[t.Value] {
			seen[t.Value] = true
			vars = append(vars, t.Value)
			kinds = append(kinds, kind)
		}
	}
	for _, tp := range sub.Patterns {
		add(tp.S, store.KindVertex)
		add(tp.P, store.KindProperty)
		add(tp.O, store.KindVertex)
	}
	out := store.NewTable(vars, kinds)
	cols := make([]int, len(vars)) // instance column per output column; -1 = v
	for i, part := range parts {
		for j, name := range vars {
			cols[j] = -1
			if name != v {
				cols[j] = part.Col(name)
			}
		}
		n := part.Len()
		for r := 0; r < n; r++ {
			for _, col := range cols {
				if col < 0 {
					out.Data = append(out.Data, vals[i])
				} else {
					out.Data = append(out.Data, part.At(r, col))
				}
			}
		}
	}
	return out
}
