package cluster

import (
	"context"
	"errors"
	"time"

	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// Plan is a query's compiled execution strategy: its classification, its
// decomposition into subqueries, and the sites each subquery visits. A Plan
// is immutable after Plan() returns and carries no per-execution state, so
// one Plan may be executed any number of times, by any number of goroutines,
// via ExecutePlan — the serving layer plans a query once and reuses the
// plan across identical requests.
type Plan struct {
	// Query is the planned query; its Select list drives the final
	// projection.
	Query *sparql.Query
	// Class is the query's executability class under this cluster's
	// partitioning (reported in Stats).
	Class sparql.Class
	// Independent reports whether the query runs without an
	// inter-partition join: the per-subquery results are complete answers.
	Independent bool
	// Subs are the evaluation units — the query itself for IEQs, the
	// Algorithm 2 / star / per-site decomposition otherwise.
	Subs []*sparql.Query
	// SitesPerSub lists, per subquery, the sites that evaluate it. An empty
	// list means the subquery is provably empty (localized constant absent,
	// unknown property) and contributes a typed empty table without any
	// site visit.
	SitesPerSub [][]int
	// Anchors names, per subquery, the variable whose binding's home site
	// holds every match of the subquery (sparql.Analysis.Anchor), or ""
	// when there is none: non-IEQ pieces, edge-disjoint layouts, cores of
	// constants only. A fan-out to every site keeps from each site only the rows
	// whose anchor binding it owns, so the per-site answers concatenate
	// without a hash union (DESIGN.md §8). Nil when no subquery has one.
	Anchors []string
	// DecompTime is how long classification + decomposition took — the QDT
	// stat, attached to every execution of this plan.
	DecompTime time.Duration

	// direct marks the single-subquery fast paths that bypass both the
	// cross-site union and the join phase: the VP whole-query-on-one-site
	// case (one site, its table is the complete answer as-is) and the VP
	// single-unknown-property case (no sites, typed empty table).
	direct bool

	// filters are the FILTER conjuncts of a single-group query that no
	// subquery's variables cover: the coordinator applies them to the
	// plan's result (the covered ones travel in the subqueries' Filters).
	filters []sparql.Expr

	// general marks a generalized query (OPTIONAL/UNION/FILTER/property
	// paths, q.Where != nil). Such queries are executed by the operator-tree
	// evaluator (general.go), which plans and runs each BGP leaf through the
	// machinery above at execution time; Subs/SitesPerSub stay empty here.
	general bool

	// version is the cluster state version the plan was built at. A
	// committed update can change a query's classification (a property
	// entering or leaving L_cross) or its site lists, so ExecutePlan
	// replans transparently when the versions no longer match — cached
	// plans stay safe to execute across updates, just not free.
	version uint64
}

// anchor returns subquery si's anchor variable, or "".
func (p *Plan) anchor(si int) string {
	if p.Anchors == nil {
		return ""
	}
	return p.Anchors[si]
}

// Plan classifies and decomposes q for this cluster's strategy without
// executing anything. The plan is safe to execute concurrently and
// repeatedly via ExecutePlan, including across committed updates (it is
// replanned under the hood when stale).
func (c *Cluster) Plan(q *sparql.Query) *Plan {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	return c.planLocked(q)
}

// planLocked builds a plan; the caller holds stateMu (either mode).
func (c *Cluster) planLocked(q *sparql.Query) *Plan {
	t0 := time.Now()
	bgp := q
	var conjs []sparql.Expr
	if !q.IsBGP() {
		leaf, filters, ok := singleBGP(q)
		if !ok {
			// Generalized queries carry their strategy in the operator tree
			// itself: each BGP leaf is classified and decomposed by this
			// same planner when the evaluator reaches it, so there is
			// nothing to precompute here. Theorem 5 does not apply to the
			// query as a whole — report ClassNonIEQ.
			return &Plan{
				Query:      q,
				Class:      sparql.ClassNonIEQ,
				general:    true,
				DecompTime: time.Since(t0),
				version:    c.version,
			}
		}
		// One BGP plus FILTERs is that BGP: its filters run site-side
		// wherever a subquery covers them, so its class is the BGP's.
		bgp, conjs = leaf, filters
	}
	p := c.planBGP(bgp)
	p.filters = attachFilters(p.Subs, conjs)
	p.Query = q
	p.DecompTime = time.Since(t0)
	p.version = c.version
	return p
}

// planBGP plans a conjunctive query for this cluster's strategy.
func (c *Cluster) planBGP(q *sparql.Query) *Plan {
	if c.vp != nil {
		return c.planVP(q)
	}
	if c.plain {
		// Every edge counts as crossing here (c.crossing is AllCrossing),
		// so a star's anchor is its centre: Definition 3.3 puts every edge
		// incident to the centre's binding at that vertex's home site. The
		// plain baselines run each (sub)query at every site.
		return c.planVertexDisjoint(q, sparql.ClassifyPlain(q), nil, sparql.DecomposeStars, c.crossing, false)
	}
	a := sparql.Analyze(q, c.crossing)
	decomp := func(q *sparql.Query) []*sparql.Query {
		return sparql.DecomposeNonIEQ(q, c.crossing)
	}
	if len(q.Patterns) > 1 && !a.Connected() {
		// Classification (Definitions 5.1–5.3) assumes a weakly connected
		// query; on a disconnected one it can report an IEQ class whose
		// per-site union misses matches that combine components matched at
		// different sites. Classify and decompose each component instead,
		// and let the coordinator join (Cartesian across components,
		// filtered by any shared property variable).
		a.Class = sparql.ClassNonIEQ
		decomp = func(q *sparql.Query) []*sparql.Query {
			var subs []*sparql.Query
			for _, comp := range q.ConnectedComponents() {
				subs = append(subs, sparql.Decompose(comp, c.crossing)...)
			}
			return subs
		}
	}
	return c.planVertexDisjoint(q, a.Class, &a, decomp, c.crossing, !c.cfg.Broadcast)
}

// singleBGP reports whether q's operator tree is one group holding one BGP
// plus FILTERs, and returns that BGP as a fresh query with the group's
// FILTER conjuncts (and any pushed root filters).
func singleBGP(q *sparql.Query) (*sparql.Query, []sparql.Expr, bool) {
	g, ok := q.Where.(*sparql.Group)
	if !ok || len(g.Parts) != 1 {
		return nil, nil, false
	}
	bg, ok := g.Parts[0].(*sparql.BGP)
	if !ok {
		return nil, nil, false
	}
	var conjs []sparql.Expr
	for _, f := range g.Filters {
		conjs = append(conjs, sparql.SplitConjuncts(f)...)
	}
	conjs = append(conjs, q.Filters...)
	return &sparql.Query{Patterns: bg.Patterns}, conjs, true
}

// attachFilters pushes each FILTER conjunct into every subquery whose
// variables cover it — sites evaluate it inside the match recursion — and
// returns the conjuncts no subquery covers, which the coordinator applies
// to the joined result. The subqueries must be the caller's own.
func attachFilters(subs []*sparql.Query, conjs []sparql.Expr) []sparql.Expr {
	var post []sparql.Expr
	for _, e := range conjs {
		vars := sparql.ExprVars(e)
		attached := false
		for _, sub := range subs {
			bound := map[string]bool{}
			for _, v := range sub.Vars() {
				bound[v] = true
			}
			if coveredBy(vars, bound) {
				sub.Filters = append(sub.Filters, e)
				attached = true
			}
		}
		if !attached {
			post = append(post, e)
		}
	}
	return post
}

// planVertexDisjoint is the common planner for all vertex-disjoint layouts:
// IEQs run whole, non-IEQs are decomposed, and each (sub)query goes to
// every site, or with localize only to the sites its localization proof
// allows (localizeSites). Each subquery is analyzed once, under anchorOn,
// the crossing test its class was judged by; qa, when non-nil, is q's own
// analysis under it, which an IEQ plan reuses for its one subquery.
func (c *Cluster) planVertexDisjoint(q *sparql.Query, class sparql.Class, qa *sparql.Analysis,
	decompose func(*sparql.Query) []*sparql.Query, anchorOn sparql.CrossingTest, localize bool) *Plan {

	p := &Plan{Class: class}
	if class.IsIEQ() {
		p.Subs = []*sparql.Query{q}
		p.Independent = true
	} else {
		p.Subs = decompose(q)
		qa = nil
	}
	p.SitesPerSub = make([][]int, len(p.Subs))
	_, owned := c.layout.(*partition.Partitioning)
	for si, sub := range p.Subs {
		if !localize && !owned {
			p.SitesPerSub[si] = c.allSites()
			continue
		}
		a := qa
		if a == nil {
			an := sparql.Analyze(sub, anchorOn)
			a = &an
		}
		if localize {
			// Empty means a localizable constant proves the subquery empty
			// (missing term, or constants pinned to different partitions).
			p.SitesPerSub[si] = c.localizeSites(a)
		} else {
			p.SitesPerSub[si] = c.allSites()
		}
		if !owned {
			continue
		}
		if v := a.Anchor(); v != "" {
			if p.Anchors == nil {
				p.Anchors = make([]string, len(p.Subs))
			}
			p.Anchors[si] = v
		}
	}
	return p
}

// readAttempts bounds the executions of one read. Every attempt but the
// last releases stateMu around its site calls; the last keeps it through
// them, so a read that lost every race still completes, and a writer waits
// behind one long read only after that read has lost readAttempts-1 races.
const readAttempts = 3

// readState is one execution attempt's side of the read protocol: the state
// version the attempt started at, and whether it keeps stateMu through its
// site calls. It is passed down explicitly to every site call the attempt
// makes.
type readState struct {
	version uint64
	pinned  bool
}

// errStale abandons an attempt: a commit landed while one of its site calls
// ran with stateMu released, so its answer could mix two states.
var errStale = errors.New("cluster: state changed during a site call")

// siteCall runs call, which makes site calls and reads no coordinator
// state, with stateMu released unless rs is pinned. The caller holds
// stateMu.RLock and holds it again on return. It returns errStale when the
// state version moved meanwhile; the caller then abandons the attempt
// before reading any coordinator state with results of the call.
func (c *Cluster) siteCall(rs *readState, call func()) error {
	if rs.pinned {
		call()
		return nil
	}
	c.stateMu.RUnlock()
	call()
	c.stateMu.RLock()
	if c.version != rs.version {
		return errStale
	}
	return nil
}

// ExecutePlan runs a previously built plan under ctx and returns the
// result with per-stage statistics. It is safe for concurrent callers: all
// per-execution state is local, and the plan itself is read-only. A plan
// built before a committed update is stale — its classification or site
// lists may no longer hold — so ExecutePlan detects the version mismatch
// and replans the query first; the caller's Plan value is never mutated.
//
// Every read of coordinator state happens under stateMu.RLock, but site
// calls run with it released (siteCall). An attempt during whose calls a
// commit landed is abandoned and rerun from a fresh plan, so the answer is
// exactly the state before or after any concurrent commit. The last of
// readAttempts keeps the lock through its calls and cannot lose.
func (c *Cluster) ExecutePlan(ctx context.Context, p *Plan) (*Result, error) {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	tr := c.cfg.Obs.StartTrace("query")
	defer tr.Finish()
	for attempt := 1; ; attempt++ {
		rs := readState{version: c.version, pinned: attempt == readAttempts}
		if p.version != c.version {
			p = c.planLocked(p.Query)
		}
		res, err := c.executeAttempt(ctx, &rs, p, tr)
		if !errors.Is(err, errStale) {
			return res, err
		}
		c.met.readRetries.Inc()
	}
}

// executeAttempt is one attempt of ExecutePlan; the caller holds
// stateMu.RLock.
func (c *Cluster) executeAttempt(ctx context.Context, rs *readState, p *Plan, tr *obs.Trace) (*Result, error) {
	sp := tr.Root().Child("decompose")
	sp.SetAttr("subqueries", int64(len(p.Subs)))
	sp.End()
	stats := Stats{
		Class:         p.Class,
		Independent:   p.Independent,
		NumSubqueries: len(p.Subs),
		DecompTime:    p.DecompTime,
		Operator:      p.Query.OperatorClass(),
	}

	var final *store.Table
	var err error
	if p.general {
		final, err = c.runGeneral(ctx, rs, p.Query, tr, &stats)
	} else {
		final, err = c.runBGPPlan(ctx, rs, p, tr, &stats)
	}
	if err != nil {
		return nil, err
	}
	final = c.filterTable(final, p.filters)

	sp = tr.Root().Child("project")
	final = project(final, p.Query)
	sp.End()
	c.met.observeStats(&stats)
	return &Result{Table: final, Stats: stats}, nil
}

// runBGPPlan executes a plain-BGP plan: local evaluation at the plan's
// sites (for decomposed queries, the anchored round and then the bound
// round of evalSubs), then, for non-independent queries, the coordinator
// join. The result carries the plan's full variable bindings — the caller
// projects.
// Stats fields are accumulated, not assigned, so the generalized evaluator
// can run many BGP-leaf plans against one Stats value.
func (c *Cluster) runBGPPlan(ctx context.Context, rs *readState, p *Plan, tr *obs.Trace, stats *Stats) (*store.Table, error) {
	var final *store.Table
	var sp *obs.Span
	switch {
	case p.direct && len(p.SitesPerSub[0]) == 0:
		// Provably empty with no site visit (VP unknown property). Keep the
		// query's variables as schema — every other execution path returns
		// a typed empty table here, and the differential oracle compares
		// schemas.
		final = emptyTableFor(p.Subs[0])

	case p.direct:
		// Whole query at one site; its answer is complete as-is.
		t1 := time.Now()
		sp = tr.Root().Child("local")
		var tab *store.Table
		var ss SubStats
		var err error
		stale := c.siteCall(rs, func() {
			tab, ss, err = c.sites[p.SitesPerSub[0][0]].ExecuteSub(ctx, p.Subs[0], SubOpts{})
		})
		sp.End()
		if stale != nil {
			return nil, stale
		}
		if err != nil {
			return nil, err
		}
		stats.LocalTime += time.Since(t1)
		stats.BytesShipped += ss.BytesShipped
		stats.WireTime += ss.WireTime
		final = tab

	default:
		tables, err := c.evalSubs(ctx, rs, p, tr, stats)
		if err != nil {
			return nil, err
		}
		if p.Independent {
			// No join phase at all: this is the whole point of an IEQ.
			final = tables[0]
			break
		}
		t2 := time.Now()
		if c.cfg.Semijoin {
			sp = tr.Root().Child("semijoin")
			removed := semijoinReduce(tables)
			stats.SemijoinRemoved += removed
			sp.SetAttr("rows_removed", int64(removed))
			sp.End()
		}
		shipped := 0
		for _, tab := range tables {
			shipped += tab.Len()
		}
		stats.TuplesShipped += shipped
		sp = tr.Root().Child("join")
		sp.SetAttr("tuples_shipped", int64(shipped))
		final, err = joinAll(tables, &c.met)
		sp.End()
		if err != nil {
			return nil, err
		}
		stats.JoinTime += time.Since(t2)
	}
	return final, nil
}
