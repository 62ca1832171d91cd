package oracle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/dataio"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/transport"
)

// Options tunes one differential environment.
type Options struct {
	// K is the number of sites. Default 3.
	K int
	// Epsilon is the balance slack of Definition 4.1. Default 0.3.
	Epsilon float64
	// Seed drives the partitioners. Default 1.
	Seed int64
	// RowLimit bounds the oracle's distinct full bindings per query; larger
	// results are skipped. Default 4000.
	RowLimit int
	// TCP adds a loopback-TCP combination (MPC partitioning, crossing-aware
	// mode over real transport sites). Close the Env to stop its servers.
	TCP bool
	// Broadcast additionally runs the crossing-aware MPC combination in the
	// paper's execution model (Config.Broadcast: every (sub)query at every
	// site), the other arm of ablation A7. Every other crossing-aware
	// combination localizes.
	Broadcast bool
	// Block adds combinations whose sites serve mmap-backed v3 block
	// snapshots instead of heap-resident flat stores: one in-process
	// (MPC crossing-aware over store.OpenSnapshot sites) and, when TCP is
	// also set, one behind real loopback servers — the cmd/mpc-site
	// -snapshot deployment. Close the Env to unmap the stores and delete
	// the snapshot files.
	Block bool
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 3
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RowLimit == 0 {
		o.RowLimit = 4000
	}
	return o
}

// combo is one execution path under differential test.
type combo struct {
	name    string
	c       *cluster.Cluster
	partial bool // answer via ExecutePartialEval instead of Execute
}

// Env holds one graph's worth of differential state: the partitionings and
// one cluster per strategy × partitioner combination.
type Env struct {
	G    *rdf.Graph
	Opts Options
	// MPC and Hash are the vertex-disjoint partitionings under test; VPL is
	// the edge-disjoint layout.
	MPC  *partition.Partitioning
	Hash *partition.Partitioning
	VPL  *partition.VPLayout

	// mu serializes ApplyBatch, Migrate, and Check against each other:
	// the update-stream test races batches with live migrations from
	// separate goroutines, and the environment (shared graph, reference
	// partitionings, per-combo clusters) must see them one at a time —
	// exactly the serialization the real coordinator's commit lock gives.
	mu sync.Mutex

	combos   []combo
	crossing sparql.CrossingTest // MPC's crossing test
	closers  []func()
}

// NewEnv builds every execution combination over g. The MPC balance
// invariant (Definition 4.1: every partition holds at most (1+ε)·|V|/k
// vertices) is asserted here, once per graph.
func NewEnv(g *rdf.Graph, o Options) (*Env, error) {
	o = o.withDefaults()
	popts := partition.Options{K: o.K, Epsilon: o.Epsilon, Seed: o.Seed}

	mpcP, err := core.MPC{}.Partition(g, popts)
	if err != nil {
		return nil, fmt.Errorf("oracle: MPC partition: %w", err)
	}
	if max, cap := mpcP.MaxPartSize(), popts.Cap(g.NumVertices()); max > cap {
		return nil, fmt.Errorf("oracle: MPC balance violated: max partition %d > cap %d (Definition 4.1)", max, cap)
	}
	hashP, err := partition.SubjectHash{}.Partition(g, popts)
	if err != nil {
		return nil, fmt.Errorf("oracle: hash partition: %w", err)
	}
	vpl, err := partition.VP{}.Partition(g, popts)
	if err != nil {
		return nil, fmt.Errorf("oracle: VP partition: %w", err)
	}

	e := &Env{G: g, Opts: o, MPC: mpcP, Hash: hashP, VPL: vpl}
	e.crossing = mpcP.CrossingTest()

	// Every cluster gets its own clone of its layout: all combos share the
	// one graph (and thus one update stream applies to the data exactly
	// once), but each cluster maintains its clone through ApplyShared
	// without stepping on the others — or on e.MPC/e.Hash/e.VPL, which
	// ApplyBatch maintains directly for the invariant checks. A plain
	// combination is built without a crossing test (the star-only baseline).
	add := func(name string, p *partition.Partitioning, plain bool, cfg cluster.Config, partial bool) error {
		p = p.Clone()
		var crossing sparql.CrossingTest
		if !plain {
			crossing = p.CrossingTest()
		}
		c, err := cluster.New(p, crossing, cfg)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", name, err)
		}
		e.combos = append(e.combos, combo{name, c, partial})
		return nil
	}
	for _, pc := range []struct {
		name string
		p    *partition.Partitioning
	}{{"mpc", mpcP}, {"hash", hashP}} {
		if err := add(pc.name+"/crossing-aware", pc.p, false, cluster.Config{}, false); err != nil {
			return nil, err
		}
		if err := add(pc.name+"/star-only+semijoin", pc.p, true, cluster.Config{Semijoin: true}, false); err != nil {
			return nil, err
		}
		if err := add(pc.name+"/partial-eval", pc.p, false, cluster.Config{}, true); err != nil {
			return nil, err
		}
	}
	vc, err := cluster.New(vpl.Clone(), nil, cluster.Config{})
	if err != nil {
		return nil, fmt.Errorf("oracle: vp: %w", err)
	}
	e.combos = append(e.combos, combo{"vp", vc, false})
	if o.Broadcast {
		if err := add("mpc/crossing-aware+broadcast", mpcP, false,
			cluster.Config{Broadcast: true}, false); err != nil {
			return nil, err
		}
	}
	if o.TCP {
		stores := make([]*store.Store, mpcP.NumSites())
		for i := range stores {
			stores[i] = store.New(g, mpcP.SiteTriples(i))
		}
		tc, err := e.tcpCluster(mpcP.Clone(), stores)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.combos = append(e.combos, combo{"mpc/crossing-aware/tcp", tc, false})
	}
	if o.Block {
		if err := e.addBlockCombos(mpcP); err != nil {
			e.Close()
			return nil, err
		}
	}
	// Every anchored merge of per-site answers (Plan.Anchors) is checked
	// against the hash union of the same tables: the anchored slices must
	// be disjoint and concatenate to the union. A failure is an execution
	// error naming the subquery, which Check reports as a hard error.
	for _, cb := range e.combos {
		cb.c.SetAnchorCheck(true)
	}
	return e, nil
}

// addBlockCombos snapshots the MPC layout's sites as v3 block files and
// registers clusters that serve them memory-mapped: one with in-process
// SiteForStore sites, and — when TCP is also requested — one behind real
// loopback servers handed the mapped store directly (the mpc-site
// -snapshot deployment, where the site's graph is dictionary-only). Both
// see the same update stream as every other combo via ApplyShared.
func (e *Env) addBlockCombos(mpcP *partition.Partitioning) error {
	dir, err := os.MkdirTemp("", "mpc-oracle-blk-")
	if err != nil {
		return err
	}
	e.closers = append(e.closers, func() { os.RemoveAll(dir) })
	paths, err := dataio.SaveSiteSnapshots(filepath.Join(dir, "site"), mpcP)
	if err != nil {
		return fmt.Errorf("oracle: block snapshots: %w", err)
	}

	openMapped := func() ([]*store.Store, error) {
		stores := make([]*store.Store, len(paths))
		for i, path := range paths {
			st, err := store.OpenSnapshot(path)
			if err != nil {
				return nil, fmt.Errorf("oracle: open block snapshot: %w", err)
			}
			stores[i] = st
			e.closers = append(e.closers, func() { st.Close() })
		}
		return stores, nil
	}

	stores, err := openMapped()
	if err != nil {
		return err
	}
	sites := make([]cluster.Site, len(stores))
	for i, st := range stores {
		sites[i] = cluster.SiteForStore(st)
	}
	bp := mpcP.Clone()
	bc, err := cluster.NewWithSites(bp, bp.CrossingTest(), cluster.Config{}, sites)
	if err != nil {
		return fmt.Errorf("oracle: block cluster: %w", err)
	}
	e.combos = append(e.combos, combo{"mpc/crossing-aware/block", bc, false})

	if !e.Opts.TCP {
		return nil
	}
	tcpStores, err := openMapped()
	if err != nil {
		return err
	}
	btc, err := e.tcpCluster(mpcP.Clone(), tcpStores)
	if err != nil {
		return err
	}
	e.combos = append(e.combos, combo{"mpc/crossing-aware/block/tcp", btc, false})
	return nil
}

// ApplyBatch commits one update batch to the whole environment: the shared
// graph mutates exactly once (resolve + trace), then every combo's cluster
// catches its layout and site stores up through ApplyShared, and the
// reference partitionings used by the invariant checks follow the same
// trace. After ApplyBatch, Check compares the post-update world.
func (e *Env) ApplyBatch(ctx context.Context, ops []rdf.Op) (rdf.ApplyStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	resolved, delta, notFound := e.G.ResolveUpdates(ops)
	trace, stats := e.G.ApplyResolvedTrace(resolved)
	stats.NotFound += notFound
	e.MPC.ApplyTrace(trace)
	e.Hash.ApplyTrace(trace)
	e.VPL.ApplyTrace(trace)
	for _, cb := range e.combos {
		if err := cb.c.ApplyShared(ctx, delta, trace); err != nil {
			return stats, fmt.Errorf("oracle: %s: %w", cb.name, err)
		}
	}
	return stats, nil
}

// Migrate recomputes the MPC assignment over a snapshot of the live graph
// and live-migrates every vertex-disjoint combination to it — the oracle's
// analogue of a repartitioner run. The reference partitionings (e.MPC,
// e.Hash) swap to the same assignment via the partition-level plan so the
// invariant checks and the reference decomposition (e.crossing closes over
// e.MPC) stay in lockstep with the clusters. Every cluster's crossing test
// closes over its own layout clone, which only that cluster's commits
// mutate, under its own state lock. The "vp" combo is edge-disjoint and
// keeps its layout.
//
// The recompute runs outside the environment lock, mirroring the real
// repartitioner: a concurrent ApplyBatch may land between the snapshot and
// the apply, in which case the migration simply installs a layout computed
// on the slightly older triple set — still a valid vertex-disjoint layout,
// so results must stay bit-identical (vertices interned after the snapshot
// keep their current placement; see partition.PlanMigration).
func (e *Env) Migrate(ctx context.Context, seed int64) (int, error) {
	e.mu.Lock()
	snap := e.G.LiveSnapshot()
	e.mu.Unlock()

	popts := partition.Options{K: e.Opts.K, Epsilon: e.Opts.Epsilon, Seed: seed}
	newP, err := core.MPC{}.Partition(snap, popts)
	if err != nil {
		return 0, fmt.Errorf("oracle: migration recompute: %w", err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	moved := 0
	for _, ref := range []*partition.Partitioning{e.MPC, e.Hash} {
		plan, err := ref.PlanMigration(newP.Assign)
		if err != nil {
			return 0, fmt.Errorf("oracle: migration plan: %w", err)
		}
		if ref == e.MPC {
			moved = plan.Moved
		}
		ref.ApplyMigration(plan)
	}
	for _, cb := range e.combos {
		if cb.name == "vp" {
			continue
		}
		if _, err := cb.c.ApplyMigration(ctx, newP.Assign, nil); err != nil {
			return moved, fmt.Errorf("oracle: %s migration: %w", cb.name, err)
		}
	}
	return moved, nil
}

// tcpCluster puts the layout's site stores behind loopback TCP servers
// and wraps clients of them in a coordinator — the real-network execution
// path. The stores are the sites: nothing is shipped at bring-up, the
// coordinator only checks that each site holds its partition.
func (e *Env) tcpCluster(p *partition.Partitioning, stores []*store.Store) (*cluster.Cluster, error) {
	addrs, closeSites, err := transport.ServeLoopback(stores, nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: serve: %w", err)
	}
	e.closers = append(e.closers, closeSites)
	clients, err := transport.Connect(addrs, transport.ClientOptions{})
	if err != nil {
		return nil, fmt.Errorf("oracle: connect: %w", err)
	}
	e.closers = append(e.closers, func() { transport.CloseAll(clients) })
	if err := transport.Verify(clients, p); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return cluster.NewWithSites(p, p.CrossingTest(), cluster.Config{}, transport.Sites(clients))
}

// Close stops any loopback-TCP servers and clients the Env spawned.
func (e *Env) Close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

// Combos returns the combination names, for reporting.
func (e *Env) Combos() []string {
	names := make([]string, len(e.combos))
	for i, cb := range e.combos {
		names[i] = cb.name
	}
	return names
}

// AnchorChecks returns, per combination, how many anchored merges of
// per-site answers passed the check NewEnv turns on.
func (e *Env) AnchorChecks() map[string]int64 {
	out := make(map[string]int64, len(e.combos))
	for _, cb := range e.combos {
		out[cb.name] = cb.c.AnchorChecks()
	}
	return out
}

// CheckResult is the outcome of one differential case.
type CheckResult struct {
	// Skipped is set when the oracle exceeded its budget; nothing was
	// compared.
	Skipped bool
	// OracleRows is the distinct full-binding count of the reference
	// evaluation.
	OracleRows int
	// Divergences lists every combination (or invariant) that disagreed
	// with the oracle, one message each. Empty means the case passed.
	Divergences []string
}

// Check runs q through every combination and compares each canonicalized
// result against the naive reference evaluation, then verifies the
// metamorphic invariants (Theorem 5 star classification, Algorithm 2
// decomposition round-trip). Execution errors are returned as hard errors;
// result mismatches are reported as divergences.
func (e *Env) Check(q *sparql.Query) (CheckResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res CheckResult
	full, err := EvalQuery(e.G, q, e.Opts.RowLimit)
	if err == ErrTooLarge {
		res.Skipped = true
		return res, nil
	}
	if err != nil {
		return res, err
	}
	res.OracleRows = full.Len()
	want := full.ProjectQuery(q)

	for _, cb := range e.combos {
		var r *cluster.Result
		if cb.partial {
			// Partial evaluation enumerates edge masks of a conjunctive
			// pattern; it has no generalized-operator analogue.
			if !q.IsBGP() || len(q.Patterns) > cluster.MaxPartialEvalEdges {
				continue
			}
			r, err = cb.c.ExecutePartialEval(q)
		} else {
			r, err = cb.c.Execute(q)
		}
		if errors.Is(err, cluster.ErrPathBudget) {
			// The engine's path closure budget is the analogue of the
			// oracle's work budget: skip, never compare a partial answer.
			res.Skipped = true
			return res, nil
		}
		if err != nil {
			return res, fmt.Errorf("oracle: %s: %w", cb.name, err)
		}
		if d := Diff(want, Canonicalize(r.Table), e.G); d != nil {
			res.Divergences = append(res.Divergences, fmt.Sprintf("%s: %v", cb.name, d))
		}
	}

	if q.IsBGP() {
		// The metamorphic invariants (Theorem 5, Algorithm 2) are statements
		// about conjunctive patterns; generalized trees exercise them through
		// their BGP leaves inside the engine instead.
		res.Divergences = append(res.Divergences, e.checkInvariants(q, full)...)
	}
	return res, nil
}

// CheckConcurrent runs q through every combination, over and over, while
// during runs — typically ApplyBatch or Migrate — and then checks each
// answer against the oracle at the state before during and at the state
// after it: a read that overlaps a commit must equal one or the other,
// never a mix. Every combination has answered once before during starts.
// It returns the number of reads made; answers matching neither state are
// reported as divergences. Skipped reports an oracle over budget on either
// state; during still runs, and its error is returned.
func (e *Env) CheckConcurrent(q *sparql.Query, during func() error) (res CheckResult, reads int, err error) {
	e.mu.Lock()
	before, bErr := EvalQuery(e.G, q, e.Opts.RowLimit)
	e.mu.Unlock()

	type answer struct {
		combo string
		b     *Bindings
	}
	var mu sync.Mutex
	var answers []answer // per combination, each answer that differs from its previous one
	var execErr error
	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	for _, cb := range e.combos {
		if cb.partial && (!q.IsBGP() || len(q.Patterns) > cluster.MaxPartialEvalEdges) {
			continue
		}
		wg.Add(1)
		started.Add(1)
		go func(cb combo) {
			defer wg.Done()
			var last uint64
			for n := 0; ; n++ {
				var r *cluster.Result
				var err error
				if cb.partial {
					r, err = cb.c.ExecutePartialEval(q)
				} else {
					r, err = cb.c.Execute(q)
				}
				mu.Lock()
				reads++
				if err != nil && execErr == nil {
					execErr = fmt.Errorf("oracle: %s (concurrent): %w", cb.name, err)
				}
				if err == nil {
					b := Canonicalize(r.Table)
					if d := b.Digest(); n == 0 || d != last {
						answers = append(answers, answer{cb.name, b})
						last = d
					}
				}
				mu.Unlock()
				if n == 0 {
					started.Done()
				}
				if err != nil {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(cb)
	}
	started.Wait()
	err = during()
	close(stop)
	wg.Wait()
	if err != nil {
		return res, 0, err
	}
	if execErr != nil {
		return res, 0, execErr
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	after, aErr := EvalQuery(e.G, q, e.Opts.RowLimit)
	if bErr == ErrTooLarge || aErr == ErrTooLarge {
		res.Skipped = true
		return res, 0, nil
	}
	if bErr != nil {
		return res, 0, bErr
	}
	if aErr != nil {
		return res, 0, aErr
	}
	res.OracleRows = after.Len()
	wantBefore, wantAfter := before.ProjectQuery(q), after.ProjectQuery(q)
	for _, a := range answers {
		dB := Diff(wantBefore, a.b, e.G)
		if dB == nil {
			continue
		}
		if dA := Diff(wantAfter, a.b, e.G); dA != nil {
			res.Divergences = append(res.Divergences,
				fmt.Sprintf("%s: concurrent read matches neither state; vs before: %v; vs after: %v", a.combo, dB, dA))
		}
	}
	return res, reads, nil
}

// checkInvariants verifies the paper-level metamorphic properties of one
// query against the oracle's full bindings.
func (e *Env) checkInvariants(q *sparql.Query, full *Bindings) []string {
	var out []string

	// Theorem 5: every star query is an IEQ under any crossing set. Proper
	// stars — distinct leaves, no self-loops — classify internal or Type-II
	// specifically; degenerate stars (repeated leaves, 2-cycles) can
	// legitimately be Type-I, which is still independently executable.
	if q.IsStar() && len(q.Patterns) > 0 {
		strict := isProperStar(q)
		for _, pc := range []struct {
			name string
			p    *partition.Partitioning
		}{{"mpc", e.MPC}, {"hash", e.Hash}} {
			class := sparql.Classify(q, pc.p.CrossingTest())
			if !class.IsIEQ() {
				out = append(out, fmt.Sprintf("invariant: star query classified %v under %s (Theorem 5)", class, pc.name))
			} else if strict && class != sparql.ClassInternal && class != sparql.ClassTypeII {
				out = append(out, fmt.Sprintf("invariant: proper star classified %v under %s, want internal or Type-II (Theorem 5)", class, pc.name))
			}
		}
	}

	// Algorithm 2: the decomposition's pattern multiset must equal the
	// query's, and oracle-evaluating the subqueries and naively joining
	// them must reproduce the direct oracle evaluation.
	subs := e.decompose(q)
	counts := map[string]int{}
	for _, tp := range q.Patterns {
		counts[tp.String()]++
	}
	for _, sub := range subs {
		for _, tp := range sub.Patterns {
			counts[tp.String()]--
		}
	}
	for pat, n := range counts {
		if n != 0 {
			out = append(out, fmt.Sprintf("invariant: decomposition pattern multiset differs at %q by %d (Algorithm 2)", pat, n))
			return out
		}
	}
	if len(subs) > 1 {
		joined, err := e.joinSubEvals(subs)
		switch {
		case err == ErrTooLarge:
			// Subquery results can exceed the budget even when the full
			// query's do not; the invariant is simply not checked then.
		case err != nil:
			out = append(out, fmt.Sprintf("invariant: decomposition eval: %v", err))
		default:
			if d := Diff(full, joined, e.G); d != nil {
				out = append(out, fmt.Sprintf("invariant: decomposition union != direct eval (Algorithm 2): %v", d))
			}
		}
	}
	return out
}

// isProperStar reports whether some center vertex turns q into a
// simple star: every pattern touches the center, no self-loops, and all
// other endpoints pairwise distinct.
func isProperStar(q *sparql.Query) bool {
	for _, center := range []string{q.Patterns[0].S.Key(), q.Patterns[0].O.Key()} {
		ok := true
		leaves := map[string]bool{}
		for _, tp := range q.Patterns {
			s, o := tp.S.Key(), tp.O.Key()
			var leaf string
			switch {
			case s == o:
				ok = false
			case s == center:
				leaf = o
			case o == center:
				leaf = s
			default:
				ok = false
			}
			if !ok || leaves[leaf] {
				ok = false
				break
			}
			leaves[leaf] = true
		}
		if ok {
			return true
		}
	}
	return false
}

// decompose mirrors the coordinator: Algorithm 2 per weakly connected
// component under the MPC crossing test.
func (e *Env) decompose(q *sparql.Query) []*sparql.Query {
	if len(q.Patterns) > 1 && !q.IsWeaklyConnected() {
		var subs []*sparql.Query
		for _, comp := range q.ConnectedComponents() {
			subs = append(subs, sparql.Decompose(comp, e.crossing)...)
		}
		return subs
	}
	return sparql.Decompose(q, e.crossing)
}

// joinSubEvals oracle-evaluates each subquery and nested-loop joins the
// results.
func (e *Env) joinSubEvals(subs []*sparql.Query) (*Bindings, error) {
	var acc *Bindings
	for _, sub := range subs {
		b, err := Eval(e.G, sub, e.Opts.RowLimit)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = b
			continue
		}
		if acc, err = Join(acc, b); err != nil {
			return nil, err
		}
		if e.Opts.RowLimit > 0 && acc.Len() > e.Opts.RowLimit {
			return nil, ErrTooLarge
		}
	}
	return acc, nil
}
