// sut.go is the benchmark's whole contact surface with the system under
// test: no other file in this directory imports mpc/internal/... . A later
// change that may not edit the benchmark must keep exactly these compiling
// and behaving:
//
//	datagen.ByName, Generator.Generate
//	workload.WatDivTemplates, workload.LUBMQueries, workload.SPARQL11Queries,
//	  workload.DBpediaLog, workload.IEQShare, workload.NamedQuery
//	rdf.Graph: Digest, NumTriples, NumLiveTriples, NumVertices, NumProperties,
//	  AllProperties, Vertices.String, Properties.String, Properties.Lookup; rdf.Op
//	dataio.SaveFile, dataio.LoadFile (streaming N-Triples ingest + Freeze),
//	  dataio.SaveSiteSnapshots, dataio.OpenSiteStore
//	core.MPC.Partition, core.MPC.PartitionFull and core.Result's
//	  SelectTime/CoarsenTime/PartitionTime/NumSupervertices
//	partition.Options{K,Epsilon,Seed}, partition.FromAssignment (golden, k=1),
//	  Partitioning: IsCrossingProperty, NumCrossingProperties, Imbalance, SiteTriples
//	store.Store: Match, Instrument, NumTriples, Graph, Mapped, Close;
//	  store.Table{Vars,Kinds,Data}, Len, At; store.NullID, store.KindProperty;
//	  store.AppendTable, store.DecodeTable
//	transport.NewServer, ServerOptions{Graph,Store,Obs}, Server.Serve/Shutdown/Close,
//	  transport.Connect, ClientOptions{Obs}, transport.CloseAll,
//	  transport.AppendQueryBatch, transport.DecodeQueryBatch
//	cluster.NewWithSites, cluster.NewFromPartitioning (golden), Config{Obs,BalanceEpsilon},
//	  Cluster.Plan, ExecutePlan, Execute; Plan.Independent; Result.Table;
//	  the Site, BatchSite, SiteUpdater, SiteMigrator interfaces
//	serve.New, Options{Workers,QueueDepth,Cache,Obs}, Scheduler.Do/Apply/Close,
//	  serve.ErrOverloaded, Response{Result,CacheHit}
//	qcache.New, Options{MaxBytes,Obs}, Cache.Get/Put/Bytes
//	sparql.Parse, Query.String, sparql.CrossingTest
//	oracle.Canonicalize, Bindings.Digest
//	obs.NewRegistry, Registry.Snapshot (counter, gauge and histogram names
//	  read in ledger.go)
//
// Deliberately not used: internal/bench, store.New / flat-index and
// cluster mode flags (ROADMAP items 2–3 may remove them).
package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/dataio"
	"mpc/internal/obs"
	"mpc/internal/oracle"
	"mpc/internal/partition"
	"mpc/internal/qcache"
	"mpc/internal/rdf"
	"mpc/internal/serve"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/transport"
	"mpc/internal/workload"
)

// The deployment the paper evaluates and mpc-server defaults to.
const (
	numSites     = 8
	epsilon      = 0.1
	serveWorkers = 8
	serveQueue   = 64
	renderRows   = 10
)

// ---------------------------------------------------------------- datasets

// Dataset is one generated RDF graph.
type Dataset struct {
	Name string
	g    *rdf.Graph
}

// GenerateDataset builds the named synthetic dataset from seed.
func GenerateDataset(name string, triples int, seed int64) (*Dataset, error) {
	gen, err := datagen.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, g: gen.Generate(triples, seed)}, nil
}

func (d *Dataset) Triples() int     { return d.g.NumTriples() }
func (d *Dataset) LiveTriples() int { return d.g.NumLiveTriples() }
func (d *Dataset) Vertices() int    { return d.g.NumVertices() }
func (d *Dataset) Properties() int  { return d.g.NumProperties() }
func (d *Dataset) Digest() string   { return fmt.Sprintf("%016x", d.g.Digest()) }

// PropertyNames returns every property IRI of the dataset, in ID order.
func (d *Dataset) PropertyNames() []string {
	ids := d.g.AllProperties()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = d.g.Properties.String(uint32(id))
	}
	return out
}

// SaveNTriples writes the dataset as an N-Triples file.
func (d *Dataset) SaveNTriples(path string) error { return dataio.SaveFile(path, d.g) }

// Query is one workload query as a client would send it: text only.
type Query struct {
	Name string
	Text string
}

// toQueries renders generated queries back to text, dropping repeats.
func toQueries(nqs []workload.NamedQuery) []Query {
	seen := make(map[string]bool, len(nqs))
	out := make([]Query, 0, len(nqs))
	for _, nq := range nqs {
		text := nq.Query.String()
		if seen[text] {
			continue
		}
		seen[text] = true
		out = append(out, Query{Name: nq.Name, Text: text})
	}
	return out
}

func pickNamed(nqs []workload.NamedQuery, names ...string) []workload.NamedQuery {
	var out []workload.NamedQuery
	for _, want := range names {
		for _, nq := range nqs {
			if nq.Name == want {
				out = append(out, nq)
			}
		}
	}
	return out
}

// WatDivLog returns the distinct queries among rounds seeded
// instantiations of each of the 20 WatDiv templates: the stress-test log
// WatDivTemplateLog samples, with every template exactly equally often, so
// the share of the log that is independently executable does not move with
// how the template draws fell.
func (d *Dataset) WatDivLog(rounds int, seed int64) []Query {
	var nqs []workload.NamedQuery
	for i := 0; i < rounds; i++ {
		for _, nq := range workload.WatDivTemplates(d.g, seed+int64(i)) {
			nq.Name = fmt.Sprintf("%s.%d", nq.Name, i)
			nqs = append(nqs, nq)
		}
	}
	return toQueries(nqs)
}

// lubmLarge are the five parameterless large-result LUBM queries.
var lubmLarge = []string{"LQ2", "LQ6", "LQ7", "LQ9", "LQ14"}

// LUBMScanQueries returns the nine large-result queries of lubm_scan.
func (d *Dataset) LUBMScanQueries(seed int64) []Query {
	nqs := pickNamed(workload.LUBMQueries(d.g, seed), lubmLarge...)
	nqs = append(nqs, pickNamed(workload.SPARQL11Queries(d.g, seed), "GQ1", "GQ2", "GQ3", "GQ6")...)
	return toQueries(nqs)
}

// LUBMPool returns the de-duplicated pool of zipf_rw in popularity order:
// rounds seeded instantiations of the nine selective LUBM queries (round
// after round, so every stretch of the ranking holds the same mix of
// shapes), then the five large-result queries and GQ1–GQ6 at the cold end.
// The cold end is the same for every seed (gqSeed picks GQ's properties,
// and their cost spans two orders of magnitude).
func (d *Dataset) LUBMPool(rounds int, seed, gqSeed int64) []Query {
	large := make(map[string]bool)
	for _, name := range lubmLarge {
		large[name] = true
	}
	var nqs, cold []workload.NamedQuery
	for i := 0; i < rounds; i++ {
		for _, nq := range workload.LUBMQueries(d.g, seed+int64(i)) {
			if large[nq.Name] {
				if i == 0 {
					cold = append(cold, nq)
				}
				continue
			}
			nq.Name = fmt.Sprintf("%s.%d", nq.Name, i)
			nqs = append(nqs, nq)
		}
	}
	nqs = append(nqs, cold...)
	nqs = append(nqs, workload.SPARQL11Queries(d.g, gqSeed)...)
	return toQueries(nqs)
}

// Answer is what one query must return: the strict canonical digest
// (sort-based, computed outside any timing) and the cheap order-free
// fingerprint every in-window reply is compared by.
type Answer struct {
	Rows   int
	FP     uint64
	Digest uint64
	Bytes  int64 // qcache's accounting size of the result
}

// Golden answers every query on a one-site in-process cluster over the same
// graph — no partitioning, no decomposition, no transport — which is dropped
// on return.
func (d *Dataset) Golden(qs []Query, workers int) ([]Answer, error) {
	one, err := partition.FromAssignment(d.g, 1, make([]int32, d.g.NumVertices()))
	if err != nil {
		return nil, err
	}
	c, err := cluster.NewFromPartitioning(one, cluster.Config{})
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(qs))
	err = forEachParallel(len(qs), workers, func(i int) error {
		q, err := sparql.Parse(qs[i].Text)
		if err != nil {
			return fmt.Errorf("golden %s: %w", qs[i].Name, err)
		}
		res, err := c.Execute(q)
		if err != nil {
			return fmt.Errorf("golden %s: %w", qs[i].Name, err)
		}
		rows, fp := fingerprint(res.Table)
		out[i] = Answer{
			Rows:   rows,
			FP:     fp,
			Digest: oracle.Canonicalize(res.Table).Digest(),
			Bytes:  160 + int64(len(qs[i].Text)) + 4*int64(len(res.Table.Data)),
		}
		return nil
	})
	return out, err
}

// fingerprint is an order-free multiset hash of a binding table: rows may
// arrive in any order and columns in any permutation (cells are salted by
// their variable's name), yet any changed, missing or extra binding moves
// it. One multiply-xor per cell, so it can follow every reply of a window.
func fingerprint(t *store.Table) (rows int, fp uint64) {
	rows = t.Len()
	w := len(t.Vars)
	if w == 0 {
		return rows, uint64(rows)
	}
	salts := make([]uint64, w)
	for i, v := range t.Vars {
		h := fnv.New64a()
		h.Write([]byte(v))
		salts[i] = h.Sum64() | 1
	}
	for r := 0; r < len(t.Data); r += w {
		var row uint64
		for c := 0; c < w; c++ {
			x := (uint64(t.Data[r+c]) + 1) * salts[c]
			x ^= x >> 29
			row += x * 0x9e3779b97f4a7c15
		}
		row ^= row >> 32
		fp += row * 0xbf58476d1ce4e5b9
	}
	return rows, fp + uint64(rows)
}

// ------------------------------------------------------------- serving SUT

// SUTOptions selects what varies between workloads; everything else is the
// fixed deployment above.
type SUTOptions struct {
	Seed       int64
	CacheBytes int64  // qcache budget; 0 = result cache off
	Dir        string // where site snapshots go
	Traced     bool   // attach an obs.Registry everywhere and decorate sites
}

// SUT is the serving stack assembled from the functions mpc-server and
// mpc-site call: MPC layout → v3 site snapshots → mmap block stores → one
// loopback transport.Server per site → transport clients →
// cluster.NewWithSites → serve.Scheduler.
type SUT struct {
	d       *Dataset
	part    *partition.Partitioning
	stores  []*store.Store
	servers []*transport.Server
	served  []chan error
	clients []*transport.Client
	clu     *cluster.Cluster
	cache   *qcache.Cache
	sched   *serve.Scheduler

	reg      *obs.Registry // nil unless traced
	tracer   *Tracer       // nil unless traced
	capMu    sync.Mutex
	captures map[int][]*sparql.Query // span ID → the subqueries that call carried

	// Build facts the metrics need.
	StageS             map[string]float64 // partition, save_snapshots, open, connect
	SnapshotBytes      int64
	CrossingProperties int
	SiteTriples        int     // Σ over sites, replicas included
	OpenHeapMB         float64 // heap growth across OpenSiteStore×k
}

// BuildSUT assembles the serving stack over d.
func BuildSUT(d *Dataset, o SUTOptions) (s *SUT, err error) {
	s = &SUT{d: d, StageS: map[string]float64{}}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if o.Traced {
		s.reg = obs.NewRegistry()
		s.tracer = NewTracer()
		s.captures = make(map[int][]*sparql.Query)
	}

	t := time.Now()
	s.part, err = (core.MPC{}).Partition(d.g, partition.Options{K: numSites, Epsilon: epsilon, Seed: o.Seed})
	if err != nil {
		return s, fmt.Errorf("partition: %w", err)
	}
	s.StageS["partition"] = time.Since(t).Seconds()
	s.CrossingProperties = s.part.NumCrossingProperties()

	t = time.Now()
	if err = os.MkdirAll(o.Dir, 0o755); err != nil {
		return s, err
	}
	paths, err := dataio.SaveSiteSnapshots(filepath.Join(o.Dir, "part"), s.part)
	if err != nil {
		return s, err
	}
	s.StageS["save_snapshots"] = time.Since(t).Seconds()
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return s, err
		}
		s.SnapshotBytes += fi.Size()
	}

	var before runtime.MemStats
	if o.Traced {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	t = time.Now()
	for _, p := range paths {
		st, err := dataio.OpenSiteStore(p)
		if err != nil {
			return s, err
		}
		s.stores = append(s.stores, st)
		if !st.Mapped() {
			return s, fmt.Errorf("%s: not served from a mapping", p)
		}
		st.Instrument(s.reg)
		s.SiteTriples += st.NumTriples()
	}
	s.StageS["open"] = time.Since(t).Seconds()
	if o.Traced {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			s.OpenHeapMB = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
		}
	}

	t = time.Now()
	addrs := make([]string, len(s.stores))
	for i, st := range s.stores {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return s, err
		}
		srv := transport.NewServer(transport.ServerOptions{Graph: st.Graph(), Store: st, Obs: s.reg})
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		s.servers = append(s.servers, srv)
		s.served = append(s.served, done)
		addrs[i] = l.Addr().String()
	}
	s.clients, err = transport.Connect(addrs, transport.ClientOptions{Obs: s.reg})
	if err != nil {
		return s, err
	}
	sites := make([]cluster.Site, len(s.clients))
	for i, c := range s.clients {
		sites[i] = c
		if o.Traced {
			sites[i] = &tracedSite{inner: c, site: i, sut: s}
		}
	}
	g, part := d.g, s.part
	crossing := sparql.CrossingTest(func(prop string) bool {
		id, ok := g.Properties.Lookup(prop)
		return ok && part.IsCrossingProperty(rdf.PropertyID(id))
	})
	s.clu, err = cluster.NewWithSites(s.part, crossing, cluster.Config{Obs: s.reg, BalanceEpsilon: epsilon}, sites)
	if err != nil {
		return s, err
	}
	if o.CacheBytes > 0 {
		s.cache = qcache.New(qcache.Options{MaxBytes: o.CacheBytes, Obs: s.reg})
	}
	s.sched = serve.New(s.clu, serve.Options{Workers: serveWorkers, QueueDepth: serveQueue, Cache: s.cache, Obs: s.reg})
	s.StageS["connect"] = time.Since(t).Seconds()
	return s, nil
}

// Close stops everything BuildSUT started and waits for the accept loops.
func (s *SUT) Close() {
	if s.sched != nil {
		s.sched.Close()
	}
	transport.CloseAll(s.clients)
	for i, srv := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(ctx) // a timed-out drain is followed by Close anyway
		cancel()
		srv.Close()
		<-s.served[i]
	}
	for _, st := range s.stores {
		st.Close()
	}
	s.sched, s.clients, s.servers, s.stores = nil, nil, nil, nil
}

// OpResult is one served reply.
type OpResult struct {
	CacheHit bool
	Rendered [][]string
	tab      *store.Table
}

// Fingerprint returns the reply's row count and order-free hash.
func (r OpResult) Fingerprint() (int, uint64) { return fingerprint(r.tab) }

// TableID identifies the reply's table; cache hits share it.
func (r OpResult) TableID() any { return r.tab }

// StrictDigest is what mpc-server computes per request and the timed op
// does not: the sort-based canonical digest.
func (r OpResult) StrictDigest() uint64 { return oracle.Canonicalize(r.tab).Digest() }

// Op is the body of mpc-server's /query handler minus HTTP and the
// per-request digest: parse the text, schedule it, render up to ten rows
// through the dictionaries.
func (s *SUT) Op(ctx context.Context, text string) (OpResult, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return OpResult{}, err
	}
	resp, err := s.sched.Do(ctx, q)
	if err != nil {
		return OpResult{}, err
	}
	return OpResult{CacheHit: resp.CacheHit, Rendered: s.render(resp.Result.Table), tab: resp.Result.Table}, nil
}

// render is mpc-server's row loop.
func (s *SUT) render(t *store.Table) [][]string {
	n := t.Len()
	if n > renderRows {
		n = renderRows
	}
	g := s.d.g
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		row := make([]string, len(t.Vars))
		for j := range t.Vars {
			switch v := t.At(i, j); {
			case v == store.NullID:
				row[j] = "∅"
			case t.Kinds[j] == store.KindProperty:
				row[j] = g.Properties.String(v)
			default:
				row[j] = g.Vertices.String(v)
			}
		}
		out = append(out, row)
	}
	return out
}

// UpdateOp is one raw triple mutation.
type UpdateOp struct {
	Insert  bool
	S, P, O string
}

// Apply commits one batch the way mpc-server's /update handler does.
func (s *SUT) Apply(ctx context.Context, ops []UpdateOp) error {
	batch := make([]rdf.Op, len(ops))
	for i, op := range ops {
		batch[i] = rdf.Op{Insert: op.Insert, S: op.S, P: op.P, O: op.O}
	}
	_, err := s.sched.Apply(ctx, batch)
	return err
}

// IEQShare is the share of qs the layout executes without an
// inter-partition join.
func (s *SUT) IEQShare(qs []Query) (float64, error) {
	n := 0
	for _, q := range qs {
		pq, err := sparql.Parse(q.Text)
		if err != nil {
			return 0, err
		}
		if s.clu.Plan(pq).Independent {
			n++
		}
	}
	return safeDiv(float64(n), float64(len(qs))), nil
}

// CacheBytes is the result cache's accounted size right now.
func (s *SUT) CacheBytes() int64 { return s.cache.Bytes() }

// ------------------------------------------------------------- traced pass

// tracedSite decorates a transport client with one span per site call and
// keeps the subqueries for the direct replays. It forwards every optional
// site interface the coordinator probes for.
type tracedSite struct {
	inner interface {
		cluster.BatchSite
		cluster.SiteUpdater
		cluster.SiteMigrator
	}
	site int
	sut  *SUT
}

func (t *tracedSite) record(name string, subs []*sparql.Query, call func() (rows int, bytes int64, err error)) {
	tr := t.sut.tracer
	parent, ok := tr.Scope()
	if !ok {
		call()
		return
	}
	id := tr.Begin(name, parent)
	rows, bytes, err := call()
	tr.End(id, func(sp *Span) {
		sp.Site, sp.Subs, sp.Rows, sp.Bytes, sp.Err = t.site, len(subs), rows, bytes, err != nil
	})
	if len(subs) > 0 {
		t.sut.capMu.Lock()
		t.sut.captures[id] = subs
		t.sut.capMu.Unlock()
	}
}

func (t *tracedSite) ExecuteSub(ctx context.Context, sub *sparql.Query, opts cluster.SubOpts) (tab *store.Table, st cluster.SubStats, err error) {
	t.record(spanRPC, []*sparql.Query{sub}, func() (int, int64, error) {
		tab, st, err = t.inner.ExecuteSub(ctx, sub, opts)
		if err != nil {
			return 0, st.BytesShipped, err
		}
		return tab.Len(), st.BytesShipped, nil
	})
	return
}

func (t *tracedSite) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts cluster.SubOpts) (tabs []*store.Table, st cluster.SubStats, err error) {
	t.record(spanRPC, subs, func() (int, int64, error) {
		tabs, st, err = t.inner.ExecuteSubBatch(ctx, subs, opts)
		rows := 0
		for _, tab := range tabs {
			rows += tab.Len()
		}
		return rows, st.BytesShipped, err
	})
	return
}

func (t *tracedSite) ApplyUpdate(ctx context.Context, batch cluster.UpdateBatch) (res cluster.SiteUpdateResult, err error) {
	t.record(spanUpdateRPC, nil, func() (int, int64, error) {
		res, err = t.inner.ApplyUpdate(ctx, batch)
		return len(batch.Ops), 0, err
	})
	return
}

func (t *tracedSite) ApplyMigrate(ctx context.Context, batch cluster.MigrateBatch) (cluster.SiteUpdateResult, error) {
	return t.inner.ApplyMigrate(ctx, batch)
}

// Tracer returns the span store of a traced SUT (nil otherwise).
func (s *SUT) Tracer() *Tracer { return s.tracer }

// OpTraced is Op with a span around each of its three calls.
func (s *SUT) OpTraced(ctx context.Context, op int, text string) (OpResult, error) {
	tr := s.tracer
	tr.SetScope(op, -1)
	root := tr.Begin(spanOp, -1)
	defer tr.End(root, nil)
	defer tr.EndScope()

	id := tr.Begin(spanParse, root)
	q, err := sparql.Parse(text)
	tr.End(id, nil)
	if err != nil {
		return OpResult{}, err
	}
	id = tr.Begin(spanDo, root)
	tr.SetScope(op, id)
	resp, err := s.sched.Do(ctx, q)
	tr.End(id, func(sp *Span) { sp.Err = err != nil })
	if err != nil {
		return OpResult{}, err
	}
	id = tr.Begin(spanRender, root)
	rendered := s.render(resp.Result.Table)
	tr.End(id, nil)
	return OpResult{CacheHit: resp.CacheHit, Rendered: rendered, tab: resp.Result.Table}, nil
}

// ApplyTraced is Apply with a span around Scheduler.Apply; the site
// decorator hangs one update-RPC span per site under it.
func (s *SUT) ApplyTraced(ctx context.Context, op int, ops []UpdateOp) error {
	tr := s.tracer
	tr.SetScope(op, -1)
	id := tr.Begin(spanApply, -1)
	tr.SetScope(op, id)
	err := s.Apply(ctx, ops)
	tr.EndScope()
	tr.End(id, func(sp *Span) { sp.Err = err != nil })
	return err
}

// PlanExecTraced calls the coordinator's two public entry points directly,
// below the scheduler, with a span on each; site calls become children of
// the execute span and their subqueries are captured.
func (s *SUT) PlanExecTraced(ctx context.Context, op int, text string) (OpResult, error) {
	q, err := sparql.Parse(text)
	if err != nil {
		return OpResult{}, err
	}
	tr := s.tracer
	tr.SetScope(op, -1)
	id := tr.Begin(spanPlan, -1)
	plan := s.clu.Plan(q)
	tr.End(id, nil)

	id = tr.Begin(spanExecute, -1)
	tr.SetScope(op, id)
	res, err := s.clu.ExecutePlan(ctx, plan)
	tr.EndScope()
	tr.End(id, func(sp *Span) {
		sp.Err = err != nil
		if err == nil {
			sp.Rows = res.Table.Len()
		}
	})
	if err != nil {
		return OpResult{}, err
	}
	return OpResult{tab: res.Table}, nil
}

// Replay splits every site call captured below ExecutePlan among the layers
// under it by running the same subqueries directly: the request codec,
// Store.Match on that site's own mapped store, and the table codec. What is
// left of the RPC's wall time is the wire, framing, scheduling and queueing.
// Calls are replayed in the order they were made, so each site's store and
// its decoded-block cache see the workload's own sequence.
func (s *SUT) Replay(spans []Span) error {
	for i := range spans {
		sp := &spans[i]
		subs := s.captures[sp.ID]
		if sp.Name != spanRPC || len(subs) == 0 || sp.Parent < 0 || spans[sp.Parent].Name != spanExecute {
			continue // pass A's calls repeat pass B's; one replay each is enough
		}
		t0 := time.Now()
		payload := transport.AppendQueryBatch(make([]byte, 0, 64+256*len(subs)), subs)
		decoded, err := transport.DecodeQueryBatch(payload)
		qcodec := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay: query codec: %w", err)
		}
		var match, tcodec time.Duration
		for _, sub := range decoded {
			t1 := time.Now()
			tab, err := s.stores[sp.Site].Match(sub)
			match += time.Since(t1)
			if err != nil {
				return fmt.Errorf("replay: match at site %d: %w", sp.Site, err)
			}
			t2 := time.Now()
			buf := store.AppendTable(nil, tab)
			if _, _, err := store.DecodeTable(buf); err != nil {
				return fmt.Errorf("replay: table codec: %w", err)
			}
			tcodec += time.Since(t2)
		}
		s.tracer.Update(sp.ID, func(x *Span) {
			x.QueryCodecNS, x.MatchNS, x.TableCodecNS = qcodec.Nanoseconds(), match.Nanoseconds(), tcodec.Nanoseconds()
			x.MatchCalls = len(decoded)
		})
	}
	return nil
}

// CacheProbe times the result cache's two public calls on the live cache
// (Get) and on a scratch cache of the same budget (Put), so the SUT's own
// contents are not disturbed by the measurement.
func (s *SUT) CacheProbe(texts []string, budget int64) (getUS, putUS float64, err error) {
	if s.cache == nil {
		return 0, 0, nil
	}
	scratch := qcache.New(qcache.Options{MaxBytes: budget})
	var get, put time.Duration
	n := 0
	for _, text := range texts {
		q, err := sparql.Parse(text)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		res, ok := s.cache.Get(q)
		get += time.Since(t0)
		if !ok {
			continue
		}
		t1 := time.Now()
		scratch.Put(q, res)
		put += time.Since(t1)
		n++
	}
	return safeDiv(float64(get.Microseconds()), float64(len(texts))), safeDiv(float64(put.Microseconds()), float64(n)), nil
}

// ObsSnapshot flattens the attached registry: counters and gauges by name,
// histograms as name.count / name.sum.
func (s *SUT) ObsSnapshot() map[string]float64 {
	out := map[string]float64{}
	if s.reg == nil {
		return out
	}
	snap := s.reg.Snapshot()
	for k, v := range snap.Counters {
		out[k] = float64(v)
	}
	for k, v := range snap.Gauges {
		out[k] = float64(v)
	}
	for k, h := range snap.Histograms {
		out[k+".count"] = float64(h.Count)
		out[k+".sum"] = float64(h.Sum)
	}
	return out
}

// --------------------------------------------------------- offline pipeline

// OfflineStages is one dataset's pass through the offline pipeline.
type OfflineStages struct {
	Triples            int
	WallS              float64 // the whole pipeline, ingest through open
	IngestS            float64 // streaming N-Triples parse + Freeze
	SelectS            float64 // Alg. 1 internal-property selection
	CoarsenS           float64
	KWayS              float64 // multilevel k-way on the coarsened graph
	LayoutS            float64 // PartitionFull minus the three above
	SaveS              float64
	OpenS              float64
	CrossingProperties int
	Supervertices      int
	SnapshotBytes      int64
	Imbalance          float64
	StoredTriples      int // Σ NumTriples over the opened site stores
	LayoutTriples      int // Σ len(SiteTriples) over the layout
}

// OfflineOutput is what one pipeline run leaves behind: the ingested graph,
// its layout and the opened site stores.
type OfflineOutput struct {
	Stages OfflineStages
	name   string
	g      *rdf.Graph
	part   *partition.Partitioning
	stores []*store.Store
}

// OfflinePipeline runs ingest → partition → snapshot → open for one
// N-Triples file. Only public pipeline calls sit between the timestamps;
// checking the output is the caller's business, after the clock stops.
func OfflinePipeline(path, name, dir string, seed int64) (*OfflineOutput, error) {
	out := &OfflineOutput{name: name}
	st := &out.Stages
	start := time.Now()
	g, err := dataio.LoadFile(path)
	if err != nil {
		return out, fmt.Errorf("ingest %s: %w", path, err)
	}
	st.IngestS = time.Since(start).Seconds()
	st.Triples = g.NumTriples()
	out.g = g

	t := time.Now()
	res, err := (core.MPC{}).PartitionFull(g, partition.Options{K: numSites, Epsilon: epsilon, Seed: seed})
	if err != nil {
		return out, fmt.Errorf("partition %s: %w", name, err)
	}
	full := time.Since(t)
	st.SelectS, st.CoarsenS, st.KWayS = res.SelectTime.Seconds(), res.CoarsenTime.Seconds(), res.PartitionTime.Seconds()
	st.LayoutS = (full - res.SelectTime - res.CoarsenTime - res.PartitionTime).Seconds()
	st.CrossingProperties = res.NumCrossingProperties()
	st.Supervertices = res.NumSupervertices
	st.Imbalance = res.Imbalance()
	out.part = res.Partitioning

	t = time.Now()
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	paths, err := dataio.SaveSiteSnapshots(filepath.Join(dir, name), res.Partitioning)
	if err != nil {
		return out, err
	}
	st.SaveS = time.Since(t).Seconds()

	t = time.Now()
	for _, p := range paths {
		s, err := dataio.OpenSiteStore(p)
		if err != nil {
			return out, err
		}
		out.stores = append(out.stores, s)
	}
	st.OpenS = time.Since(t).Seconds()
	st.WallS = time.Since(start).Seconds()

	for i, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return out, err
		}
		st.SnapshotBytes += fi.Size()
		st.StoredTriples += out.stores[i].NumTriples()
		st.LayoutTriples += len(res.SiteTriples(i))
	}
	return out, nil
}

// Release closes the opened site stores.
func (o *OfflineOutput) Release() {
	for _, s := range o.stores {
		s.Close()
	}
	o.stores = nil
}

// Digest is the ingested graph's content digest; it equals the generating
// graph's exactly when ingest lost or mangled nothing.
func (o *OfflineOutput) Digest() string { return fmt.Sprintf("%016x", o.g.Digest()) }

// dbpediaLogSize: enough sampled queries that the independently executable
// share of the log is a property of the layout, not of the sample (at the
// issue's 400 the share moves ±2 % with the log's seed alone).
const dbpediaLogSize = 2000

// IEQ classifies the dataset's query log under the layout (paper Table
// III): how many queries run without an inter-partition join.
func (o *OfflineOutput) IEQ(seed int64) (ieq, total int) {
	g, part := o.g, o.part
	crossing := func(prop string) bool {
		id, ok := g.Properties.Lookup(prop)
		return ok && part.IsCrossingProperty(rdf.PropertyID(id))
	}
	var log []workload.NamedQuery
	switch o.name {
	case "DBpedia":
		log = workload.DBpediaLog(g, dbpediaLogSize, seed)
	case "LUBM":
		log = workload.LUBMQueries(g, seed)
	}
	return int(workload.IEQShare(log, crossing)*float64(len(log)) + 0.5), len(log)
}

// isRejected reports whether err is an admission-queue rejection (HTTP 429
// upstream).
func isRejected(err error) bool { return errors.Is(err, serve.ErrOverloaded) }
