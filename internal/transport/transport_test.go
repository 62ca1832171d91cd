package transport

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/datagen"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// startServer serves st on a loopback listener and returns the server
// with its address. Cleanup kills it and waits for its accept loop.
func startServer(t *testing.T, st *store.Store) (*Server, string) {
	t.Helper()
	srv, addr, wait, err := startSite("127.0.0.1:0", st, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		<-wait
	})
	return srv, addr
}

// testGraph builds a small deterministic graph.
func testGraph(t *testing.T) *rdf.Graph {
	t.Helper()
	return datagen.LUBM{}.Generate(2000, 7)
}

// allTriples returns [0..n) indices.
func allTriples(g *rdf.Graph) []int32 {
	idx := make([]int32, g.NumTriples())
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// TestPingAndQuery covers the two things a coordinator does first: the
// ping reply describes the site's store and dictionaries, and a subquery
// comes back with measured wire stats.
func TestPingAndQuery(t *testing.T) {
	g := testGraph(t)
	st := store.New(g, allTriples(g))
	_, addr := startServer(t, st)
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	info, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if want := (SiteInfo{Triples: g.NumTriples(), Vertices: g.NumVertices(), Properties: g.NumProperties()}); info != want {
		t.Fatalf("ping reported %+v, want %+v", info, want)
	}

	q := &sparql.Query{Patterns: []sparql.TriplePattern{{
		S: sparql.Term{IsVar: true, Value: "s"},
		P: sparql.Term{IsVar: true, Value: "p"},
		O: sparql.Term{IsVar: true, Value: "o"},
	}}}
	tab, ws, err := c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != want.Len() {
		t.Fatalf("?s ?p ?o returned %d rows, want %d", tab.Len(), want.Len())
	}
	if ws.BytesShipped <= 0 || ws.WireTime <= 0 {
		t.Fatalf("missing wire stats: %+v", ws)
	}
}

// TestServeRejectsBadOptions pins the one site shape: a server needs a
// store, and ServerOptions.Graph may only repeat the store's own graph.
func TestServeRejectsBadOptions(t *testing.T) {
	g := testGraph(t)
	st := store.New(g, allTriples(g))
	for name, opts := range map[string]ServerOptions{
		"no store":      {},
		"foreign graph": {Store: st, Graph: testGraph(t)},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := NewServer(opts).Serve(l); err == nil {
			t.Errorf("%s: Serve accepted the options", name)
		}
	}
}

// TestVerifyCatchesWrongLayout checks the connect-time guard: sites
// serving one layout refuse — by name — a coordinator holding another.
func TestVerifyCatchesWrongLayout(t *testing.T) {
	g := testGraph(t)
	served := mustPartition(t, g, 2)
	stores := make([]*store.Store, served.NumSites())
	for i := range stores {
		stores[i] = store.New(g, served.SiteTriples(i))
	}
	addrs, closeSites, err := ServeLoopback(stores, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSites()
	clients, err := Connect(addrs, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(clients)

	if err := Verify(clients, served); err != nil {
		t.Fatalf("matching layout refused: %v", err)
	}
	other, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(other.SiteTriples(0)) == len(served.SiteTriples(0)) {
		t.Skip("seeds 1 and 99 happen to size site 0 identically")
	}
	err = Verify(clients, other)
	if err == nil || !strings.Contains(err.Error(), "site 0") {
		t.Fatalf("mismatched layout: got %v, want an error naming site 0", err)
	}
	if err := Verify(clients[:1], served); err == nil {
		t.Fatal("client/site count mismatch accepted")
	}
}

// TestRemoteMatchesLocal checks that a remote ExecuteSub returns a table
// bit-identical to the local store's answer for a spread of subqueries.
func TestRemoteMatchesLocal(t *testing.T) {
	g := testGraph(t)
	local := store.New(g, allTriples(g))
	_, addr := startServer(t, local)
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		tr := g.Triple(int32(rng.Intn(g.NumTriples())))
		q := &sparql.Query{Patterns: []sparql.TriplePattern{{
			S: sparql.Term{IsVar: true, Value: "x"},
			P: sparql.Term{Value: g.Properties.String(uint32(tr.P))},
			O: sparql.Term{IsVar: i%2 == 0, Value: g.Vertices.String(uint32(tr.O))},
		}}}
		want, err := local.Match(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Vars, got.Vars) || !reflect.DeepEqual(want.Data, got.Data) ||
			want.ZeroWidthRows != got.ZeroWidthRows {
			t.Fatalf("query %d: remote table differs from local", i)
		}
	}
}

// TestServerKilledMidQuery models a site process dying: in-flight and
// subsequent requests must surface ErrUnavailable after bounded retries,
// not hang and not panic.
func TestServerKilledMidQuery(t *testing.T) {
	g := testGraph(t)
	srv, addr := startServer(t, store.New(g, allTriples(g)))
	reg := obs.NewRegistry()
	c, err := Dial(addr, ClientOptions{
		RequestTimeout: 5 * time.Second,
		MaxRetries:     2,
		RetryBackoff:   5 * time.Millisecond,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.Close() // the site dies

	q := &sparql.Query{Patterns: []sparql.TriplePattern{{
		S: sparql.Term{IsVar: true, Value: "s"},
		P: sparql.Term{IsVar: true, Value: "p"},
		O: sparql.Term{IsVar: true, Value: "o"},
	}}}
	_, _, err = c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("query against dead site: got %v, want ErrUnavailable", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["transport.retries"] < 2 {
		t.Fatalf("expected >=2 retries, got %d", snap.Counters["transport.retries"])
	}
}

// pong is a well-formed ping reply for stub servers.
var pong = appendSiteInfo(nil, SiteInfo{})

// stubServer speaks just enough protocol to exercise client failure paths:
// it handshakes, then hands each connection to handle.
func stubServer(t *testing.T, handle func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if err := readHandshake(br); err != nil {
					return
				}
				if err := writeHandshake(conn); err != nil {
					return
				}
				handle(conn, br)
			}()
		}
	}()
	return l.Addr().String()
}

// TestSlowServerHitsDeadline models a wedged site: the request must return
// ErrTimeout once its deadline expires instead of hanging.
func TestSlowServerHitsDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr := stubServer(t, func(conn net.Conn, br *bufio.Reader) {
		readFrame(br) // swallow the request, never answer
		<-release
	})
	c := NewClient(addr, ClientOptions{RequestTimeout: 150 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	_, err := c.Ping()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("ping against wedged site: got %v, want ErrTimeout", err)
	}
	if e := time.Since(start); e > 3*time.Second {
		t.Fatalf("deadline took %v to fire", e)
	}
}

// TestRetryRecoversFromConnDrop kills the first two connections mid-frame;
// the third attempt must succeed transparently.
func TestRetryRecoversFromConnDrop(t *testing.T) {
	drops := make(chan struct{}, 2)
	drops <- struct{}{}
	drops <- struct{}{}
	addr := stubServer(t, func(conn net.Conn, br *bufio.Reader) {
		req, _, err := readFrame(br)
		if err != nil {
			return
		}
		select {
		case <-drops:
			return // close mid-exchange: client sees EOF
		default:
		}
		writeFrame(conn, MsgOK, req.reqID, pong)
	})
	c := NewClient(addr, ClientOptions{
		RequestTimeout: 5 * time.Second,
		MaxRetries:     3,
		RetryBackoff:   time.Millisecond,
	})
	defer c.Close()
	if _, err := c.Ping(); err != nil {
		t.Fatalf("ping should have recovered via retries: %v", err)
	}
}

// TestDrainRefusesNewWork checks graceful shutdown semantics: after
// Shutdown begins, new requests get a typed draining error.
func TestDrainRefusesNewWork(t *testing.T) {
	g := testGraph(t)
	srv, addr := startServer(t, store.New(g, allTriples(g)))
	c, err := Dial(addr, ClientOptions{MaxRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The pooled connection is closed by shutdown and the listener is gone,
	// so the query fails as unavailable; a request that raced the drain
	// window would see ErrDraining instead. Either way it is typed.
	q := &sparql.Query{Patterns: []sparql.TriplePattern{{
		S: sparql.Term{IsVar: true, Value: "s"},
		P: sparql.Term{IsVar: true, Value: "p"},
		O: sparql.Term{IsVar: true, Value: "o"},
	}}}
	_, _, err = c.ExecuteSub(context.Background(), q, cluster.SubOpts{})
	if !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrDraining) {
		t.Fatalf("query after shutdown: got %v, want ErrUnavailable or ErrDraining", err)
	}
}

// TestHandshakeRejectsBadPeer checks version/magic validation.
func TestHandshakeRejectsBadPeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Write([]byte("HTTP/1.1 400 no\r\n"))
			conn.Close()
		}
	}()
	c := NewClient(l.Addr().String(), ClientOptions{
		RequestTimeout: time.Second, MaxRetries: 1, RetryBackoff: time.Millisecond,
	})
	defer c.Close()
	if _, err := c.Ping(); err == nil {
		t.Fatal("ping accepted a non-MPCT peer")
	}
}

func TestQueryCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randTerm := func() sparql.Term {
		return sparql.Term{IsVar: rng.Intn(2) == 0, Value: string(rune('a' + rng.Intn(26)))}
	}
	for i := 0; i < 200; i++ {
		q := &sparql.Query{}
		for j := rng.Intn(4); j > 0; j-- {
			q.Select = append(q.Select, string(rune('x'+rng.Intn(3))))
		}
		for j := rng.Intn(6); j > 0; j-- {
			q.Patterns = append(q.Patterns, sparql.TriplePattern{S: randTerm(), P: randTerm(), O: randTerm()})
		}
		got, err := DecodeQuery(AppendQuery(nil, q))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("case %d: roundtrip mismatch:\n%+v\n%+v", i, q, got)
		}
	}
}

func TestQueryCodecFilters(t *testing.T) {
	q := &sparql.Query{
		Select: []string{"x"},
		Patterns: []sparql.TriplePattern{{
			S: sparql.Term{IsVar: true, Value: "x"},
			P: sparql.Term{Value: "knows"},
			O: sparql.Term{IsVar: true, Value: "y"},
		}},
	}
	// Filter-free payloads must stay byte-identical to the pre-filter
	// encoding: the section is optional on the wire.
	plain := AppendQuery(nil, q)
	for _, src := range []string{`?y != <alice>`, `bound(?x) && (?x = ?y || !bound(?y))`} {
		e, err := sparql.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		q.Filters = append(q.Filters, e)
	}
	enc := AppendQuery(nil, q)
	if len(enc) <= len(plain) || !reflect.DeepEqual(plain, enc[:len(plain)]) {
		t.Fatal("filter section should extend the plain encoding")
	}
	got, err := DecodeQuery(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Filters) != len(q.Filters) {
		t.Fatalf("got %d filters, want %d", len(got.Filters), len(q.Filters))
	}
	for i := range got.Filters {
		if got.Filters[i].String() != q.Filters[i].String() {
			t.Errorf("filter %d: got %s, want %s", i, got.Filters[i], q.Filters[i])
		}
	}
	// Truncating inside the filter section must error, not silently drop
	// (cutting at exactly len(plain) is the valid filter-free encoding).
	for cut := len(plain) + 1; cut < len(enc); cut++ {
		if _, err := DecodeQuery(enc[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(enc))
		}
	}
	// A filter string that does not parse back is a codec error.
	bad := append(append([]byte(nil), plain...), 1)
	bad = appendString(bad, "?x &&")
	if _, err := DecodeQuery(bad); err == nil {
		t.Fatal("unparseable filter accepted")
	}
}

func TestQueryCodecTruncated(t *testing.T) {
	q := &sparql.Query{
		Select: []string{"x", "y"},
		Patterns: []sparql.TriplePattern{{
			S: sparql.Term{IsVar: true, Value: "x"},
			P: sparql.Term{Value: "knows"},
			O: sparql.Term{IsVar: true, Value: "y"},
		}},
	}
	enc := AppendQuery(nil, q)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeQuery(enc[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(enc))
		}
	}
	if _, err := DecodeQuery(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
