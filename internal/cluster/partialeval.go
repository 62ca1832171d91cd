package cluster

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// MaxPartialEvalEdges bounds the query size for partial evaluation: the
// assembly DP is exponential in the pattern count. Exported so harnesses
// (internal/oracle) can skip over-budget queries instead of treating the
// size error as a divergence.
const MaxPartialEvalEdges = 12

// ExecutePartialEval answers q with partial-evaluation-and-assembly, the
// run-time framework of gStoreD (Peng et al., VLDB J 2016) that the paper
// uses for its partitioning-agnostic experiment (Fig. 11). Unlike Execute,
// it uses no crossing-property knowledge at all — it is purely data-driven,
// which is what makes it partitioning-agnostic:
//
//  1. Every query edge of a full match is *owned* by exactly one site: the
//     home partition of the subject binding. The edges owned by one site
//     form connected pieces, each fully visible at that site.
//  2. Each site therefore evaluates every connected sub-pattern of q,
//     restricted to triples it owns — these are the local partial matches
//     (without gStoreD's maximality pruning, which only reduces volume).
//  3. The coordinator assembles pieces into full matches with an exact-
//     cover dynamic program over edge masks: each state extends with a
//     piece covering the lowest uncovered edge, so every decomposition is
//     built exactly once.
//
// The number of intermediate tuples (Stats.TuplesShipped) is the analogue
// of gStoreD's local-partial-match count: fewer crossing properties mean
// more matches complete within one site and fewer pieces to assemble.
//
// The cluster must have been built from a vertex-disjoint partitioning
// (NewFromPartitioning or New with a *partition.Partitioning layout).
func (c *Cluster) ExecutePartialEval(q *sparql.Query) (*Result, error) {
	// Reads the vertex assignment and the site stores directly, so it
	// excludes concurrent writers the same way ExecutePlan does.
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	p, ok := c.layout.(*partition.Partitioning)
	if !ok {
		return nil, fmt.Errorf("cluster: partial evaluation requires a vertex-disjoint partitioning, got %T", c.layout)
	}
	if !q.IsBGP() || len(q.Filters) > 0 {
		// The exact-cover assembly enumerates edge masks of a conjunctive
		// pattern; generalized operators have no edge-mask decomposition.
		return nil, fmt.Errorf("cluster: partial evaluation supports plain BGP queries only")
	}
	if c.remote {
		// The ownership predicate below is a closure over the coordinator's
		// assignment; it cannot be shipped to a remote site.
		return nil, fmt.Errorf("cluster: partial evaluation requires in-process stores, not a remote transport")
	}
	n := len(q.Patterns)
	if n == 0 {
		return &Result{Table: &store.Table{}}, nil
	}
	if n > MaxPartialEvalEdges {
		return nil, fmt.Errorf("cluster: partial evaluation supports at most %d patterns, query has %d", MaxPartialEvalEdges, n)
	}
	stats := Stats{Class: sparql.ClassNonIEQ, NumSubqueries: n}

	t0 := time.Now()
	masks := connectedMasks(q)
	stats.DecompTime = time.Since(t0)

	// Phase 1: local partial matches, in parallel over (site, mask).
	t1 := time.Now()
	full := (1 << n) - 1
	pieceParts := make([][]*store.Table, len(masks)) // per mask, per site
	for i := range pieceParts {
		pieceParts[i] = make([]*store.Table, len(c.sites))
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for mi, mask := range masks {
		sub := subPattern(q, mask)
		for site := range c.sites {
			wg.Add(1)
			go func() {
				defer wg.Done()
				owned := func(tr rdf.Triple) bool {
					return int(p.Assign[tr.S]) == site
				}
				tab, err := c.stores[site].MatchWhere(sub, owned)
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				pieceParts[mi][site] = tab
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	pieces := make(map[int]*store.Table, len(masks))
	for mi, mask := range masks {
		for site, tab := range pieceParts[mi] {
			pieceParts[mi][site] = pruneForcedExtensions(q, mask, tab, p, site)
		}
		var err error
		pieces[mask], err = unionTables(pieceParts[mi])
		if err != nil {
			return nil, err
		}
		if mask != full {
			stats.TuplesShipped += pieces[mask].Len()
		}
	}
	stats.LocalTime = time.Since(t1)

	// Phase 2: exact-cover assembly over edge masks.
	t2 := time.Now()
	acc := map[int]*store.Table{0: unitTable()}
	for mask := 0; mask < full; mask++ {
		cur, ok := acc[mask]
		if !ok || cur.Len() == 0 {
			continue
		}
		lowest := lowestUnset(mask, n)
		for pm, ptab := range pieces {
			if pm&mask != 0 || pm&(1<<lowest) == 0 || ptab.Len() == 0 {
				continue
			}
			joined, err := hashJoin(cur, ptab, &c.met)
			if err != nil {
				return nil, err
			}
			next := mask | pm
			if prev, ok := acc[next]; ok {
				acc[next], err = unionTables([]*store.Table{prev, joined})
				if err != nil {
					return nil, err
				}
			} else {
				acc[next] = joined
			}
		}
	}
	final, ok := acc[full]
	if !ok {
		final = emptyTableFor(q)
	} else {
		var err error
		final, err = unionTables([]*store.Table{final}) // dedup assembled matches
		if err != nil {
			return nil, err
		}
	}
	stats.JoinTime = time.Since(t2)
	c.met.observeStats(&stats)
	return &Result{Table: project(final, q), Stats: stats}, nil
}

// pruneForcedExtensions is the maximality analogue of gStoreD's local
// partial matches: a piece row computed at site `site` for edge set `mask`
// is discarded when some edge e ∉ mask has its subject already bound (by a
// constant or by a variable the piece binds) to a vertex homed at this very
// site. Ownership of e's match is determined by that subject's home, so in
// any full match extending the row, e belongs to this site's piece — the
// row is either superseded by the larger piece (which the site also
// computes) or a local dead end. Canonical pieces of real matches are never
// pruned. Under MPC most vertices a piece touches are internal, so almost
// only complete matches survive; under hash partitioning boundary pieces
// survive and must be assembled — the Fig. 11 phenomenon.
func pruneForcedExtensions(q *sparql.Query, mask int, tab *store.Table,
	p *partition.Partitioning, site int) *store.Table {
	if tab == nil || tab.Len() == 0 {
		return tab
	}
	g := p.Graph()
	// For every outside edge, determine how its subject is bound: by a
	// constant vertex, or by a column of the piece table.
	type probe struct {
		col   int    // column index when the subject is a piece variable
		con   uint32 // constant vertex ID when col < 0
		valid bool
	}
	// Vertex terms of the piece, for adjacency checks.
	maskTerms := map[string]bool{}
	for i, tp := range q.Patterns {
		if mask&(1<<i) != 0 {
			maskTerms[tp.S.Key()] = true
			maskTerms[tp.O.Key()] = true
		}
	}
	var probes []probe
	for i, tp := range q.Patterns {
		if mask&(1<<i) != 0 {
			continue
		}
		if tp.S.IsVar {
			// A bound subject variable implies adjacency to the piece.
			if col := tab.Col(tp.S.Value); col >= 0 && tab.Kinds[col] == store.KindVertex {
				probes = append(probes, probe{col: col, valid: true})
			}
			continue
		}
		// Constant subject: the forced edge must be adjacent to the piece,
		// otherwise it belongs to a different piece of the same site and
		// proves nothing about this one.
		if !maskTerms[tp.S.Key()] && !maskTerms[tp.O.Key()] {
			continue
		}
		if id, ok := g.Vertices.Lookup(tp.S.Value); ok {
			probes = append(probes, probe{col: -1, con: id, valid: true})
		}
	}
	if len(probes) == 0 {
		return tab
	}
	// Filter rows in place on the flat storage.
	w := tab.Stride()
	n, kept := tab.Len(), 0
	for r := 0; r < n; r++ {
		forced := false
		for _, pr := range probes {
			u := pr.con
			if pr.col >= 0 {
				u = tab.At(r, pr.col)
			}
			if int(p.Assign[u]) == site {
				forced = true
				break
			}
		}
		if !forced {
			if kept != r {
				copy(tab.Data[kept*w:(kept+1)*w], tab.Data[r*w:(r+1)*w])
			}
			kept++
		}
	}
	if w == 0 {
		tab.ZeroWidthRows = kept
	} else {
		tab.Data = tab.Data[:kept*w]
	}
	return tab
}

// unitTable is the empty-schema table with one row: the join identity.
func unitTable() *store.Table {
	return &store.Table{ZeroWidthRows: 1}
}

// lowestUnset returns the index of the lowest zero bit of mask among the
// first n bits.
func lowestUnset(mask, n int) int {
	for i := 0; i < n; i++ {
		if mask&(1<<i) == 0 {
			return i
		}
	}
	return n
}

// subPattern builds the query containing exactly the patterns selected by
// mask, projecting all their variables.
func subPattern(q *sparql.Query, mask int) *sparql.Query {
	sub := &sparql.Query{}
	for i, tp := range q.Patterns {
		if mask&(1<<i) != 0 {
			sub.Patterns = append(sub.Patterns, tp)
		}
	}
	sub.Select = sub.Vars()
	return sub
}

// connectedMasks enumerates every nonempty edge subset of q whose patterns
// form a weakly connected subgraph (sharing subject/object terms). Masks
// are returned in increasing popcount order.
func connectedMasks(q *sparql.Query) []int {
	n := len(q.Patterns)
	// Pattern adjacency: two patterns are adjacent if they share a vertex
	// term (subject or object).
	shares := make([][]bool, n)
	termKeys := make([][2]string, n)
	for i, tp := range q.Patterns {
		termKeys[i] = [2]string{tp.S.Key(), tp.O.Key()}
	}
	for i := range shares {
		shares[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			for _, a := range termKeys[i] {
				for _, b := range termKeys[j] {
					if a == b {
						shares[i][j] = true
					}
				}
			}
		}
	}
	var out []int
	for mask := 1; mask < (1 << n); mask++ {
		if maskConnected(mask, n, shares) {
			out = append(out, mask)
		}
	}
	// Increasing popcount (stable within equal popcount by value).
	sortByPopcount(out)
	return out
}

func maskConnected(mask, n int, shares [][]bool) bool {
	start := -1
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	seen := 1 << start
	frontier := []int{start}
	for len(frontier) > 0 {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for u := 0; u < n; u++ {
			if mask&(1<<u) != 0 && seen&(1<<u) == 0 && shares[v][u] {
				seen |= 1 << u
				frontier = append(frontier, u)
			}
		}
	}
	return seen == mask
}

func sortByPopcount(masks []int) {
	// Insertion sort by (popcount, value): mask lists are short.
	for i := 1; i < len(masks); i++ {
		for j := i; j > 0; j-- {
			a, b := masks[j-1], masks[j]
			if bits.OnesCount(uint(a)) > bits.OnesCount(uint(b)) ||
				(bits.OnesCount(uint(a)) == bits.OnesCount(uint(b)) && a > b) {
				masks[j-1], masks[j] = b, a
			} else {
				break
			}
		}
	}
}
