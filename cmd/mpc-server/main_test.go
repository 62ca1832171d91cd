package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/dataio"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/qcache"
	"mpc/internal/rdf"
	"mpc/internal/serve"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/transport"
)

// TestRetryAfterSeconds pins the 429 hint to the observed p50 of
// serve.total_ns, clamped to [1,30] seconds.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name     string
		obs      []time.Duration
		min, max int
	}{
		{"no history", nil, 1, 1},
		{"fast queries clamp up to 1s", []time.Duration{2 * time.Millisecond, 3 * time.Millisecond}, 1, 1},
		// Power-of-two histogram buckets interpolate the p50, so accept a
		// small band around the true median for mid-range latencies.
		{"slow queries track the median", []time.Duration{4 * time.Second, 4 * time.Second, 4 * time.Second}, 3, 6},
		{"pathological tail clamps at 30s", []time.Duration{5 * time.Minute, 5 * time.Minute}, 30, 30},
		{"40s p50 clamps to 30", []time.Duration{40 * time.Second, 40 * time.Second, 40 * time.Second, 40 * time.Second}, 30, 30},
		{"3s p50 is 3", []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second, 3 * time.Second}, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			h := reg.Histogram("serve.total_ns")
			for _, d := range tc.obs {
				h.ObserveDuration(d)
			}
			if got := retryAfterSeconds(reg); got < tc.min || got > tc.max {
				t.Fatalf("retryAfterSeconds = %d, want in [%d,%d]", got, tc.min, tc.max)
			}
		})
	}
}

// testCluster builds a tiny two-site in-process cluster over the given
// triples.
func testCluster(t *testing.T, triples [][3]string) (*rdf.Graph, *cluster.Cluster) {
	t.Helper()
	g := rdf.NewGraph()
	for _, tr := range triples {
		g.AddTriple(tr[0], tr[1], tr[2])
	}
	g.Freeze()
	layout, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(layout, nil, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, c
}

// TestRetryAfterHeader saturates a one-worker, depth-one scheduler with a
// concurrent burst and asserts the resulting 429 carries a Retry-After
// hint in whole seconds within the [1,30] clamp. The burst's own queries
// land in the latency histogram, so the exact value depends on how many
// complete before a rejection; TestRetryAfterSeconds pins the mapping.
func TestRetryAfterHeader(t *testing.T) {
	g, c := testCluster(t, [][3]string{{"s1", "p", "o1"}, {"s2", "p", "o2"}})
	reg := obs.NewRegistry()
	sched := serve.New(c, serve.Options{Workers: 1, QueueDepth: 1, Obs: reg})
	defer sched.Close()

	handler := queryHandler(g, sched, reg)
	const burst = 256
	var (
		mu       sync.Mutex
		rejected *httptest.ResponseRecorder
		wg       sync.WaitGroup
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
				strings.NewReader("SELECT ?s ?o WHERE { ?s <p> ?o }")))
			if rec.Code == http.StatusTooManyRequests {
				mu.Lock()
				rejected = rec
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if rejected == nil {
		t.Skip("burst never overloaded the scheduler on this machine")
	}
	got := rejected.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(got); err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After = %q, want whole seconds in [1,30]", got)
	}
}

// TestUpdateHandler exercises the full write path through HTTP with a live
// result cache: a query answered (and cached) before a delete must be
// re-answered freshly after the update acks — the serve-level stale-cache
// guarantee.
func TestUpdateHandler(t *testing.T) {
	g, c := testCluster(t, [][3]string{
		{"a", "knows", "b"}, {"b", "knows", "c"}, {"c", "knows", "d"},
	})
	cache := qcache.New(qcache.Options{})
	sched := serve.New(c, serve.Options{Workers: 2, Cache: cache})
	defer sched.Close()

	qh := queryHandler(g, sched, obs.NewRegistry())
	uh := updateHandler(sched)

	ask := func() queryResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		qh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader("SELECT ?s ?o WHERE { ?s <knows> ?o }")))
		if rec.Code != http.StatusOK {
			t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
		}
		var out queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if got := ask(); got.RowCount != 3 || got.CacheHit {
		t.Fatalf("pre-update: rows=%d hit=%v, want 3 rows uncached", got.RowCount, got.CacheHit)
	}
	if got := ask(); got.RowCount != 3 || !got.CacheHit {
		t.Fatalf("repeat: rows=%d hit=%v, want a cache hit", got.RowCount, got.CacheHit)
	}

	rec := httptest.NewRecorder()
	uh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(
		`[{"insert":false,"s":"b","p":"knows","o":"c"},
		  {"insert":true,"s":"d","p":"knows","o":"e"},
		  {"insert":true,"s":"e","p":"knows","o":"a"}]`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("update: %d %s", rec.Code, rec.Body.String())
	}
	var stats struct {
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
		NotFound int `json:"not_found"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 2 || stats.Deleted != 1 || stats.NotFound != 0 {
		t.Fatalf("stats = %+v, want 2 inserted / 1 deleted / 0 not found", stats)
	}

	// The ack above happened strictly after invalidation: this read must
	// recompute, and see the delete and both inserts.
	got := ask()
	if got.CacheHit {
		t.Fatal("post-update answer served from cache: invalidation did not take")
	}
	if got.RowCount != 4 {
		t.Fatalf("post-update rows = %d, want 4 (delete b→c, insert d→e and e→a)", got.RowCount)
	}

	// Method and body validation.
	rec = httptest.NewRecorder()
	uh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/update", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	uh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader("[]")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", rec.Code)
	}
}

// TestSitesStayMapped drives the deployment the CLIs document —
// mpc-partition -export-snapshots → mpc-site -snapshot → mpc-server -sites —
// through the functions those commands call, and checks the coordinator
// serves from the sites as it finds them: the stores the site processes
// mapped answer the queries and absorb the updates (nothing is re-shipped
// or rebuilt on the heap), and a coordinator whose layout differs from the
// exported one is refused at connect time.
func TestSitesStayMapped(t *testing.T) {
	const k, epsilon, seed = 3, 0.1, 1
	dir := t.TempDir()
	in := filepath.Join(dir, "g.nt")
	if err := dataio.SaveFile(in, datagen.LUBM{}.Generate(4000, 1)); err != nil {
		t.Fatal(err)
	}

	// mpc-partition -export-snapshots
	g, err := dataio.LoadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := (core.MPC{}).Partition(g, partition.Options{K: k, Epsilon: epsilon, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := dataio.SaveSiteSnapshots(filepath.Join(dir, "part"), p)
	if err != nil {
		t.Fatal(err)
	}

	// mpc-site -snapshot, one per site
	siteReg := obs.NewRegistry()
	stores := make([]*store.Store, len(paths))
	for i, path := range paths {
		if stores[i], err = dataio.OpenSiteStore(path); err != nil {
			t.Fatal(err)
		}
		defer stores[i].Close()
		stores[i].Instrument(siteReg)
	}
	addrs, closeSites, err := transport.ServeLoopback(stores, siteReg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSites()
	held := func() (n int) {
		for _, st := range stores {
			n += st.NumTriples()
		}
		return n
	}

	// mpc-server -sites with the wrong strategy: refused, naming a site.
	if _, _, err := buildCluster(g, k, epsilon, "Subject_Hash", seed, false, addrs, nil); err == nil ||
		!strings.Contains(err.Error(), "site 0") {
		t.Fatalf("coordinator with another layout: got %v, want a connect-time refusal naming site 0", err)
	}

	// mpc-server -sites with the exported layout.
	gs, err := dataio.LoadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	c, closeClients, err := buildCluster(gs, k, epsilon, "MPC", seed, false, addrs, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer closeClients()

	q := sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y . ?y <http://lubm.example.org/univ#worksFor> ?d }`)
	res, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() == 0 {
		t.Fatal("join query returned no rows")
	}
	before := held()
	if _, err := c.Apply(context.Background(), []rdf.Op{
		{Insert: true, S: "<urn:t:a>", P: "<urn:t:p>", O: "<urn:t:b>"},
	}); err != nil {
		t.Fatal(err)
	}

	for i, st := range stores {
		if !st.Mapped() {
			t.Errorf("site %d no longer serves its mapped snapshot", i)
		}
	}
	if n := siteReg.Snapshot().Counters["store.match_calls"]; n == 0 {
		t.Error("the mapped stores evaluated no subquery: the sites answered from something else")
	}
	if after := held(); after <= before {
		t.Errorf("the mapped stores hold %d triples after an insert, %d before: the update went elsewhere", after, before)
	}
}

// TestQueryDigestOnRequest pins the digest to the digest=1 parameter: the
// sort-based canonical digest costs a full sort of the result, so a plain
// /query reply omits it.
func TestQueryDigestOnRequest(t *testing.T) {
	g, c := testCluster(t, [][3]string{{"a", "knows", "b"}, {"b", "knows", "c"}})
	sched := serve.New(c, serve.Options{Workers: 1})
	defer sched.Close()
	qh := queryHandler(g, sched, obs.NewRegistry())
	ask := func(target string) queryResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		qh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target,
			strings.NewReader("SELECT ?s ?o WHERE { ?s <knows> ?o }")))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, rec.Code, rec.Body.String())
		}
		var out queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := ask("/query"); got.Digest != "" || got.RowCount != 2 {
		t.Fatalf("plain query: digest %q, %d rows; want no digest, 2 rows", got.Digest, got.RowCount)
	}
	if got := ask("/query?digest=1"); len(got.Digest) != 16 {
		t.Fatalf("digest=1: digest %q, want 16 hex digits", got.Digest)
	}
}
