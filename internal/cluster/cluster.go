// Package cluster implements the paper's distributed SPARQL execution
// environment: k sites each holding one partition, plus a coordinator that
// classifies incoming queries, dispatches independently executable queries
// (IEQs) to every site in parallel, decomposes non-IEQs into subqueries
// (Algorithm 2 for crossing-aware systems, subject-star decomposition for
// the baselines), and joins subquery results.
//
// The coordinator's strategy follows from what it is built over (New,
// NewWithSites): an edge-disjoint *partition.VPLayout runs each pattern at
// its property's site; a vertex-disjoint layout with a crossing test runs
// the crossing-aware planner of Section V; and a vertex-disjoint layout
// without one is a plain baseline (Subject_Hash, METIS) that knows no
// crossing set, so it treats every property as crossing and decomposes
// non-stars into subject stars.
//
// Sites are abstracted behind the Site interface, which has two
// implementations:
//
//   - In-process (New/NewFromPartitioning): each site is a local store
//     evaluated on a goroutine; no bytes move.
//   - Remote (NewWithSites): each site is a network endpoint — typically an
//     internal/transport client talking to a cmd/mpc-site process — and
//     Stats carries the measured wire bytes (BytesShipped) and round-trip
//     time (WireTime).
//
// Either way, what the model preserves is exactly the phenomenon under
// study: IEQs skip the join phase — and its shipping — entirely.
package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpc/internal/dsf"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// SubOpts tunes one Site.ExecuteSub call.
type SubOpts struct {
	// Timeout bounds the call, including any transport retries; zero means
	// the site's default. In-process sites ignore it.
	Timeout time.Duration
}

// SubStats reports the transport-level measurements of one ExecuteSub
// call. In-process sites return the zero value.
type SubStats struct {
	// BytesShipped is the wire bytes moved for the call, request plus
	// response.
	BytesShipped int64
	// WireTime is the wall time of the network round-trip, including
	// serialization and retries.
	WireTime time.Duration
}

// Site is one partition's query endpoint: it evaluates a subquery against
// the partition's triples and returns the resulting bindings. The
// in-process implementation is a direct call into a local store;
// internal/transport provides a TCP client implementation so sites can run
// as separate processes (cmd/mpc-site). Implementations must be safe for
// concurrent ExecuteSub calls and should return promptly — with a
// ctx.Err()-wrapping error — once ctx is cancelled.
type Site interface {
	ExecuteSub(ctx context.Context, sub *sparql.Query, opts SubOpts) (*store.Table, SubStats, error)
}

// BatchSite is a Site that evaluates several subqueries of one plan in a
// single exchange, returning one table per subquery in order. It is the
// form the coordinator's fan-out uses: a remote implementation answers
// all of a plan's subqueries bound for its site with one request/response
// frame pair. NewWithSites adapts a Site without batch support into one
// that answers a batch with per-subquery ExecuteSub calls.
type BatchSite interface {
	Site
	ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts SubOpts) ([]*store.Table, SubStats, error)
}

// localSite is the in-process Site: a direct store call, no wire. A store
// match is pure CPU with no blocking points, so cancellation is only
// checked on entry.
type localSite struct{ st *store.Store }

func (s localSite) ExecuteSub(ctx context.Context, sub *sparql.Query, _ SubOpts) (*store.Table, SubStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, SubStats{}, err
	}
	tab, err := s.st.Match(sub)
	return tab, SubStats{}, err
}

// ExecuteSubBatch implements BatchSite so the in-process cluster runs the
// same grouping code path as the remote one (and the differential oracle
// covers it).
func (s localSite) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, _ SubOpts) ([]*store.Table, SubStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, SubStats{}, err
	}
	tabs := make([]*store.Table, len(subs))
	for i, sub := range subs {
		var err error
		if tabs[i], err = s.st.Match(sub); err != nil {
			return nil, SubStats{}, err
		}
	}
	return tabs, SubStats{}, nil
}

// perSubSite adapts a Site without batch support to the fan-out's
// interface: one ExecuteSub call per subquery, measurements summed.
type perSubSite struct{ Site }

func (s perSubSite) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts SubOpts) ([]*store.Table, SubStats, error) {
	tabs := make([]*store.Table, len(subs))
	var total SubStats
	for i, sub := range subs {
		tab, ss, err := s.ExecuteSub(ctx, sub, opts)
		total.BytesShipped += ss.BytesShipped
		total.WireTime += ss.WireTime
		if err != nil {
			return nil, total, err
		}
		tabs[i] = tab
	}
	return tabs, total, nil
}

// SiteForStore wraps an existing store as an in-process Site, for clusters
// assembled with NewWithSites over stores the caller built itself — e.g.
// mmap-backed block-snapshot stores (store.OpenSnapshot). NewWithSites
// recognizes the wrapper and registers the store for the shared-update path
// (ApplyShared), so live update batches reach it like any other local site.
func SiteForStore(st *store.Store) Site { return localSite{st} }

// Config tunes the cluster.
type Config struct {
	// Semijoin enables the distributed semijoin reduction (AdPart/WORQ
	// style) before inter-partition joins: subquery results are filtered
	// by the join keys present in the other subqueries' results, shrinking
	// the tuples shipped to the coordinator. A run-time optimization, as
	// the paper notes — orthogonal to the partitioning itself.
	Semijoin bool
	// Broadcast sends every (sub)query to every site: the paper's
	// execution model, for ablation A7 only. By default a crossing-aware
	// plan localizes: when a constant of an IEQ (sub)query is guaranteed
	// to match an internal vertex (Theorems 3/4), only its home partition
	// is evaluated — the query localization the paper leaves as future
	// work.
	Broadcast bool
	// Obs receives per-stage metrics (counters, latency histograms) and
	// per-query span traces when non-nil. Nil disables all instrumentation
	// at near-zero cost and leaves results bit-identical; see internal/obs.
	Obs *obs.Registry
	// BalanceEpsilon is the Definition 4.1 imbalance slack ε the drift
	// monitor judges live updates against: a partition violates the cap
	// when |V_i| > (1+ε)·|V|/k. Use the same ε the offline partitioner ran
	// with. Zero means no slack (any above-average partition counts as a
	// violation).
	BalanceEpsilon float64
}

// Cluster is a distributed RDF system: in-process, or backed by remote
// sites over a real transport.
type Cluster struct {
	layout partition.SiteLayout
	// sites are the sites as given, probed for the optional write halves
	// (SiteUpdater, SiteMigrator); batch is the read path's view of the same
	// sites — sites[i] itself, or a perSubSite around it.
	sites  []Site
	batch  []BatchSite
	stores []*store.Store // per-site local stores; nil entries for remote sites
	remote bool           // true when any site is not an in-process store
	// crossing is the test plans are judged by: the caller's for a
	// crossing-aware cluster, sparql.AllCrossing for a plain one (plain),
	// nil for an edge-disjoint one (vp).
	crossing sparql.CrossingTest
	plain    bool
	vp       *partition.VPLayout
	cfg      Config
	met      clusterMetrics
	// anchorCheck makes every anchored merge verify itself against the
	// hash union (SetAnchorCheck); anchorChecked counts the merges it
	// verified.
	anchorCheck   atomic.Bool
	anchorChecked atomic.Int64

	// Lock ordering (outermost first): commitMu → stateMu → per-site
	// locks (a transport server's update mutex, a store's internal
	// RWMutex). Never acquire in any other order.
	//
	// commitMu serializes state-changing operations against each other:
	// update commits (Apply/ApplyShared) and live migrations
	// (ApplyMigration). Holding commitMu WITHOUT stateMu lets expensive
	// pre-commit work — dictionary resolution of an update batch, the
	// migration diff and its pre-shipping phase — proceed while readers
	// keep planning and executing; only the moment that must be atomic
	// with respect to readers is taken under stateMu.Lock.
	commitMu sync.Mutex
	// stateMu serializes committed updates (writers) against every read
	// of coordinator state: planning, localization, anchored merges, the
	// graph. A reader does not hold it across site calls: siteCall
	// releases it for the call, re-takes it and checks version, and an
	// execution that saw a commit land is rerun (readAttempts; DESIGN.md
	// §11). Only a read's last attempt keeps it through its calls.
	stateMu sync.RWMutex
	// version increments per committed update batch; plans record the
	// version they were built at so ExecutePlan can replan stale ones.
	version uint64
	// updateSeq numbers committed batches for site-side idempotency.
	updateSeq uint64
	// migrateSeq numbers migration shipments (see migrate.go); guarded by
	// commitMu, not stateMu — shipments happen outside the state lock.
	migrateSeq uint64

	// Drift monitor state (vertex-disjoint layouts only; see DriftReport).
	driftInc       *dsf.Incremental
	driftBaseCross int

	// LoadTime is how long building all site stores took (the "loading"
	// column of Table VI). Zero for remote clusters, whose stores are built
	// by their own processes.
	LoadTime time.Duration
}

// Stats reports the per-stage breakdown of one query execution, matching
// the rows of Tables IV and V: QDT (decomposition), LET (local evaluation),
// JT (coordinator join).
//
// Every number is measured. Clusters over a real transport (NewWithSites)
// report their wire traffic in BytesShipped and WireTime, incurred during
// the local-evaluation phase and so already part of LocalTime; in-process
// clusters move no bytes and leave both zero. TuplesShipped counts the
// intermediate tuples either kind moves to the coordinator.
type Stats struct {
	// Class is the query's executability class under this cluster's
	// partitioning.
	Class sparql.Class
	// Independent reports whether the query ran without inter-partition
	// join.
	Independent bool
	// NumSubqueries is 1 for IEQs, otherwise the decomposition size.
	NumSubqueries int
	// DecompTime is query classification + decomposition time (QDT).
	DecompTime time.Duration
	// LocalTime is the wall time of the parallel local evaluation (LET).
	// For remote clusters this includes the network round-trips.
	LocalTime time.Duration
	// JoinTime is coordinator join computation time (JT).
	JoinTime time.Duration
	// TuplesShipped counts intermediate tuples moved for joins.
	TuplesShipped int
	// BytesShipped is the measured wire bytes moved between the
	// coordinator and the sites for this query (requests plus responses).
	// Zero for in-process clusters, which move no bytes.
	BytesShipped int64
	// WireTime is the summed network round-trip time across this query's
	// site calls (retries included). Zero for in-process clusters. Calls
	// run in parallel, so WireTime can exceed LocalTime.
	WireTime time.Duration
	// SemijoinRemoved counts subquery-result rows eliminated by the
	// semijoin reduction before shipping (0 when Config.Semijoin is off).
	SemijoinRemoved int
	// Operator is the query's operator class ("bgp", "optional", "union",
	// "filter", "path" — sparql.Query.OperatorClass), driving the
	// per-operator latency histograms.
	Operator string
}

// Total returns QDT+LET+JT, the end-to-end latency.
func (s Stats) Total() time.Duration { return s.DecompTime + s.LocalTime + s.JoinTime }

// Result is a query answer with its execution statistics.
type Result struct {
	Table *store.Table
	Stats Stats
}

// New builds a cluster over a site layout, one in-process store per site.
// The layout and crossing choose the strategy (see the package doc): a
// *partition.VPLayout is edge-disjoint and ignores crossing; any other
// layout is crossing-aware under crossing (usually
// Partitioning.CrossingTest), or a plain star-only baseline when crossing
// is nil.
func New(layout partition.SiteLayout, crossing sparql.CrossingTest, cfg Config) (*Cluster, error) {
	c := newCoordinator(layout, crossing, cfg)
	start := time.Now()
	g := layout.Graph()
	c.stores = make([]*store.Store, layout.NumSites())
	c.sites = make([]Site, layout.NumSites())
	var wg sync.WaitGroup
	for i := range c.stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.stores[i] = store.New(g, layout.SiteTriples(i))
			c.stores[i].Instrument(cfg.Obs)
		}(i)
	}
	wg.Wait()
	c.batch = make([]BatchSite, len(c.sites))
	for i, st := range c.stores {
		c.sites[i], c.batch[i] = localSite{st}, localSite{st}
	}
	c.LoadTime = time.Since(start)
	cfg.Obs.Gauge("cluster.sites").Set(int64(len(c.sites)))
	return c, nil
}

// NewWithSites builds a cluster whose per-partition evaluation is delegated
// to the given sites — typically internal/transport clients pointed at
// cmd/mpc-site processes serving the snapshots exported from this layout.
// The layout stays at the coordinator for classification, localization and
// (edge-disjoint layouts) property placement; len(sites) must equal
// layout.NumSites(). layout and crossing choose the strategy as in New.
func NewWithSites(layout partition.SiteLayout, crossing sparql.CrossingTest, cfg Config, sites []Site) (*Cluster, error) {
	if len(sites) != layout.NumSites() {
		return nil, fmt.Errorf("cluster: %d sites for a %d-partition layout", len(sites), layout.NumSites())
	}
	c := newCoordinator(layout, crossing, cfg)
	c.sites = append([]Site(nil), sites...)
	c.stores = make([]*store.Store, len(sites))
	c.batch = make([]BatchSite, len(sites))
	c.remote = true
	for i, s := range sites {
		if ls, ok := s.(localSite); ok {
			c.stores[i] = ls.st
		}
		if bs, ok := s.(BatchSite); ok {
			c.batch[i] = bs
		} else {
			c.batch[i] = perSubSite{s}
		}
	}
	cfg.Obs.Gauge("cluster.sites").Set(int64(len(c.sites)))
	return c, nil
}

// newCoordinator builds the site-independent part of a cluster: the
// strategy its inputs choose, metrics, layout bookkeeping.
func newCoordinator(layout partition.SiteLayout, crossing sparql.CrossingTest, cfg Config) *Cluster {
	c := &Cluster{layout: layout, crossing: crossing, cfg: cfg}
	if vp, ok := layout.(*partition.VPLayout); ok {
		c.vp, c.crossing = vp, nil
	} else if crossing == nil {
		// A plain baseline knows no crossing set. Every edge counts as
		// crossing for anchors and bind-round narrowing.
		c.plain, c.crossing = true, sparql.AllCrossing
	}
	if p, ok := layout.(*partition.Partitioning); ok {
		// The drift monitor compares the live |E^c| against the offline
		// partitioner's result; capture the baseline before any update.
		c.driftBaseCross = p.NumCrossingEdges()
	}
	c.met = newClusterMetrics(cfg.Obs)
	return c
}

// NewFromPartitioning builds a crossing-aware in-process cluster over p,
// judged by p's own crossing test (Partitioning.CrossingTest).
func NewFromPartitioning(p *partition.Partitioning, cfg Config) (*Cluster, error) {
	return New(p, p.CrossingTest(), cfg)
}

// NumSites returns the cluster size.
func (c *Cluster) NumSites() int { return len(c.sites) }

// Site returns the in-process store at site i (for inspection in tests),
// or nil when site i is remote.
func (c *Cluster) Site(i int) *store.Store { return c.stores[i] }

// Remote reports whether any site is evaluated over a real transport
// rather than in process.
func (c *Cluster) Remote() bool { return c.remote }

// Execute runs the query and returns its result and per-stage statistics.
// It is safe for concurrent callers on a shared Cluster; see ExecuteCtx for
// cancellation and Plan/ExecutePlan for plan reuse.
func (c *Cluster) Execute(q *sparql.Query) (*Result, error) {
	return c.ExecuteCtx(context.Background(), q)
}

// ExecuteCtx is Execute with cancellation: plan the query, then run the
// plan under ctx. Site calls in flight observe the cancellation (remote
// sites abandon the RPC; local sites check on entry) and the first
// ctx.Err()-wrapping error is returned.
func (c *Cluster) ExecuteCtx(ctx context.Context, q *sparql.Query) (*Result, error) {
	return c.ExecutePlan(ctx, c.Plan(q))
}

// allSites returns [0..k).
func (c *Cluster) allSites() []int {
	s := make([]int, len(c.sites))
	for i := range s {
		s[i] = i
	}
	return s
}

// localizeSites returns the sites that can contribute matches of an
// analyzed IEQ subquery: when a localizable constant exists
// (sparql.Analysis.LocalizableTerms),
// only its home partition; an unknown constant or conflicting homes prove
// the subquery empty (nil result). Without localizable constants, all
// sites.
func (c *Cluster) localizeSites(a *sparql.Analysis) []int {
	terms := a.LocalizableTerms()
	if len(terms) == 0 {
		return c.allSites()
	}
	g := c.layout.Graph()
	p, ok := c.layout.(*partition.Partitioning)
	if !ok {
		return c.allSites()
	}
	site := -1
	for _, t := range terms {
		id, known := g.Vertices.Lookup(t.Value)
		if !known {
			return nil // constant absent from the data: no matches anywhere
		}
		home := int(p.Assign[id])
		if site == -1 {
			site = home
		} else if site != home {
			return nil // two internal constants in different partitions
		}
	}
	return []int{site}
}

// evalPerSub evaluates each subquery over its own site list in parallel,
// with stateMu released for the calls unless rs is pinned (siteCall), and
// merges each subquery's per-site tables (mergeSites). An empty site list yields an empty table with the
// subquery's schema. It serves both the vertex-disjoint path (one site
// list shared by all subqueries, or localized lists) and the VP path
// (per-task site lists). anchors, when non-nil, names each subquery's
// anchor variable (Plan.Anchors). parent, when non-nil, receives one child
// span per site call. The returned SubStats aggregates the transport
// measurements of all site calls (zero for in-process clusters).
//
// The (subquery, site) fan-out is grouped by site: all the subqueries of
// the plan that land on one site travel as one ExecuteSubBatch exchange —
// one frame each way instead of one round trip per subquery.
func (c *Cluster) evalPerSub(ctx context.Context, rs *readState, subs []*sparql.Query, sitesPerSub [][]int, anchors []string, parent *obs.Span) ([]*store.Table, SubStats, error) {
	type key struct{ sub, site int }
	results := make(map[key]*store.Table)
	var wire SubStats
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	run := func(site int, sis []int) {
		defer wg.Done()
		batch := make([]*sparql.Query, len(sis))
		for i, si := range sis {
			batch[i] = subs[si]
		}
		sp := parent.Child("site-eval")
		sp.SetAttr("site", int64(site))
		sp.SetAttr("subs", int64(len(sis)))
		tabs, ss, err := c.batch[site].ExecuteSubBatch(ctx, batch, SubOpts{})
		sp.End()
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		wire.BytesShipped += ss.BytesShipped
		wire.WireTime += ss.WireTime
		for i, si := range sis {
			if tabs != nil {
				results[key{si, site}] = tabs[i]
			}
		}
	}
	// Invert (subquery → sites) into (site → subqueries).
	perSite := make([][]int, len(c.sites))
	for si := range subs {
		for _, site := range sitesPerSub[si] {
			perSite[site] = append(perSite[site], si)
		}
	}
	if err := c.siteCall(rs, func() {
		for site, sis := range perSite {
			if len(sis) == 0 {
				continue
			}
			wg.Add(1)
			go run(site, sis)
		}
		wg.Wait()
	}); err != nil {
		return nil, wire, err
	}
	if firstErr != nil {
		return nil, wire, firstErr
	}
	out := make([]*store.Table, len(subs))
	for si := range subs {
		sites := sitesPerSub[si]
		if len(sites) == 0 {
			out[si] = emptyTableFor(subs[si])
			continue
		}
		parts := make([]*store.Table, len(sites))
		for i, site := range sites {
			parts[i] = results[key{si, site}]
		}
		anchor := ""
		if anchors != nil {
			anchor = anchors[si]
		}
		var err error
		if out[si], err = c.mergeSites(subs[si], anchor, sites, parts); err != nil {
			return nil, wire, err
		}
	}
	return out, wire, nil
}

// mergeSites merges one subquery's per-site tables (parts[i] from
// sites[i]) into its answer:
//
//   - one site: its table as-is. A one-site list is either a localized IEQ
//     (Theorems 3/4 put every match at the home of a core constant) or a
//     VP / bound-round instance: complete by construction. It is never
//     filtered by the anchor — a localizing constant may be a centre other
//     than the anchor, and then the rows' anchors live at other sites.
//   - an anchor, and every site of the cluster: from each site, the rows
//     whose anchor binding that site owns (Assign[id] == site),
//     concatenated. Theorem 5 with Definition 3.3 says the owner of
//     μ(anchor) finds every match μ, so each match is kept exactly once
//     and no hash table is needed (DESIGN.md §8).
//   - otherwise (no anchor, a partial site list, a schema the slices
//     cannot map): the deduplicating hash union.
func (c *Cluster) mergeSites(sub *sparql.Query, anchor string, sites []int, parts []*store.Table) (*store.Table, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	if anchor != "" && len(sites) == len(c.sites) {
		if p, ok := c.layout.(*partition.Partitioning); ok {
			if out, ok := anchoredConcat(parts, sites, anchor, p.Assign); ok {
				if c.anchorCheck.Load() {
					if err := checkAnchored(out, parts); err != nil {
						return nil, fmt.Errorf("cluster: anchored union of { %s } on ?%s: %w", patternList(sub), anchor, err)
					}
					c.anchorChecked.Add(1)
				}
				return out, nil
			}
		}
	}
	return unionTables(parts)
}

// patternList renders a subquery's patterns on one line, for errors.
func patternList(q *sparql.Query) string {
	parts := make([]string, len(q.Patterns))
	for i, tp := range q.Patterns {
		parts[i] = tp.String()
	}
	return strings.Join(parts, " ")
}

// anchoredConcat concatenates, from each site's table, the rows whose
// anchor column holds a vertex that site owns. It reports false — use the
// hash union — when a table lacks the anchor column or does not share the
// first table's column order, or a binding is outside the assignment.
func anchoredConcat(parts []*store.Table, sites []int, anchor string, assign []int32) (*store.Table, bool) {
	first := parts[0]
	col := first.Col(anchor)
	if col < 0 || first.Kinds[col] != store.KindVertex {
		return nil, false
	}
	rows := 0
	for _, t := range parts {
		if !slices.Equal(t.Vars, first.Vars) {
			return nil, false
		}
		rows += t.Len()
	}
	out := store.NewTable(first.Vars, first.Kinds)
	out.Grow(rows)
	w := len(first.Vars)
	for i, t := range parts {
		site := int32(sites[i])
		n := t.Len()
		for r := 0; r < n; r++ {
			v := t.Data[r*w+col]
			if int(v) >= len(assign) {
				return nil, false
			}
			if assign[v] == site {
				out.Data = append(out.Data, t.Data[r*w:(r+1)*w]...)
			}
		}
	}
	return out, true
}

// checkAnchored verifies one anchored merge against the hash union of the
// same per-site tables: the anchored slices must be pairwise disjoint, and
// their concatenation must hold every row the union does. Every
// concatenated row comes from some site's table, so equal distinct counts
// mean equal sets. It backs SetAnchorCheck.
func checkAnchored(concat *store.Table, parts []*store.Table) error {
	set, err := dedupTable(concat)
	if err != nil {
		return err
	}
	if set.Len() != concat.Len() {
		return fmt.Errorf("anchored slices overlap: %d rows, %d distinct", concat.Len(), set.Len())
	}
	union, err := unionTables(parts)
	if err != nil {
		return err
	}
	if union.Len() != set.Len() {
		return fmt.Errorf("anchored concatenation has %d rows, hash union %d", set.Len(), union.Len())
	}
	return nil
}

// SetAnchorCheck turns on a verification of every anchored merge: each one
// also computes the hash union of the same per-site tables and fails the
// query, naming the subquery and its anchor, when the anchored slices
// overlap or miss a row. It costs a hash union per merge; the differential
// tests turn it on.
func (c *Cluster) SetAnchorCheck(on bool) { c.anchorCheck.Store(on) }

// AnchorChecks returns how many anchored merges SetAnchorCheck's
// verification has passed.
func (c *Cluster) AnchorChecks() int64 { return c.anchorChecked.Load() }

// unionTables merges same-schema tables, deduplicating rows. Sites share
// dictionaries, so columns align by variable name; the tables may permute
// columns but must bind the same variable set. A table missing one of the
// union's variables is a schema mismatch and an explicit error — silently
// filling the column would alias dictionary ID 0 into the results.
//
// Dedup keys are integers: rows of width ≤2 pack injectively into a uint64;
// wider rows use an FNV hash with a verify-on-probe chain over the rows
// already in the output. Candidate rows are appended to the flat output
// first and truncated away if they turn out to be duplicates, so the loop
// performs no per-row allocation.
func unionTables(tables []*store.Table) (*store.Table, error) {
	if len(tables) == 0 {
		return &store.Table{}, nil
	}
	out := store.NewTable(tables[0].Vars, tables[0].Kinds)
	width := len(out.Vars)
	exact := width <= 2
	rows := 0
	for _, tab := range tables {
		rows += tab.Len()
	}
	var seenPacked map[uint64]struct{} // injective packed keys (width ≤ 2)
	var seenHash map[uint64][]int32    // hash → output row indices (wider)
	var seenZero bool                  // width == 0: at most one (empty) row
	// Size the output and the dedup map for the input: the common case is
	// few duplicates, and growing either by doubling costs more than the
	// slack.
	if width > 0 {
		out.Grow(rows)
		if exact {
			seenPacked = make(map[uint64]struct{}, rows)
		} else {
			seenHash = make(map[uint64][]int32, rows)
		}
	}
	colMap := make([]int, width)
	for _, tab := range tables {
		// Column mapping in case variable order differs.
		for i, v := range out.Vars {
			c := tab.Col(v)
			if c < 0 {
				return nil, fmt.Errorf("cluster: union schema mismatch: table %v lacks variable ?%s of %v",
					tab.Vars, v, out.Vars)
			}
			colMap[i] = c
		}
		if len(tab.Vars) != width {
			return nil, fmt.Errorf("cluster: union schema mismatch: table %v vs %v", tab.Vars, out.Vars)
		}
		n := tab.Len()
		if width == 0 {
			if n > 0 && !seenZero {
				seenZero = true
				out.ZeroWidthRows = 1
			}
			continue
		}
		for r := 0; r < n; r++ {
			start := len(out.Data)
			for _, c := range colMap {
				out.Data = append(out.Data, tab.At(r, c))
			}
			mapped := out.Data[start:]
			if exact {
				k := uint64(mapped[0])
				if width > 1 {
					k |= uint64(mapped[1]) << 32
				}
				if _, dup := seenPacked[k]; dup {
					out.Data = out.Data[:start]
					continue
				}
				seenPacked[k] = struct{}{}
				continue
			}
			h := uint64(fnvOffset64)
			for _, v := range mapped {
				h ^= uint64(v)
				h *= fnvPrime64
			}
			dup := false
			for _, prev := range seenHash[h] {
				if rowsEqual(out.Row(int(prev)), mapped) {
					dup = true
					break
				}
			}
			if dup {
				out.Data = out.Data[:start]
				continue
			}
			seenHash[h] = append(seenHash[h], int32(start/width))
		}
	}
	return out, nil
}

// rowsEqual compares two same-width rows.
func rowsEqual(a, b []uint32) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// project keeps only the query's selected variables (all variables when
// SELECT *), preserving multiset semantics after projection.
func project(t *store.Table, q *sparql.Query) *store.Table {
	if len(q.Select) == 0 {
		return t
	}
	var vars []string
	var kinds []store.VarKind
	cols := make([]int, 0, len(q.Select))
	for _, v := range q.Select {
		c := t.Col(v)
		if c < 0 {
			continue // selected variable not bound by the BGP
		}
		cols = append(cols, c)
		vars = append(vars, v)
		kinds = append(kinds, t.Kinds[c])
	}
	out := store.NewTable(vars, kinds)
	n := t.Len()
	if len(cols) == 0 {
		out.ZeroWidthRows = n
		return out
	}
	out.Grow(n)
	for r := 0; r < n; r++ {
		for _, c := range cols {
			out.Data = append(out.Data, t.At(r, c))
		}
	}
	return out
}
