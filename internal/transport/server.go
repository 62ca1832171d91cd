package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/obs"
	"mpc/internal/rdf"
	"mpc/internal/store"
)

// ServerOptions configures a site server.
type ServerOptions struct {
	// Store is the site: one partition's triples plus the dictionaries
	// every site shares (Store.Graph). Required. A snapshot-opened store
	// has a dictionary-only graph; a store handed over in-process may share
	// the coordinator's graph object.
	Store *store.Store
	// Graph is redundant with Store and kept for callers that set both:
	// leave it nil or set it to Store.Graph(). Serve rejects anything else.
	Graph *rdf.Graph
	// Obs receives server metrics (bytes, per-type latency, request
	// counters). Nil disables instrumentation.
	Obs *obs.Registry
}

// Server is one site of the cluster as a network endpoint: it holds one
// partition's store and evaluates subqueries sent by the coordinator.
// Connections are handled one read loop each; every request on a
// connection is handled on its own goroutine and responses are written
// back (in completion order, identified by request ID) under a
// per-connection write lock — the server side of the client's pipelined
// multiplexing. maxConnInflight bounds the per-connection handler fan-out;
// beyond it the read loop stops pulling frames and TCP backpressure takes
// over.
type Server struct {
	store   *store.Store
	optsErr error // what was wrong with the ServerOptions; Serve reports it
	met     serverMetrics

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	closed   bool

	// updMu serializes the mutating requests against each other; queries
	// stay concurrent (the store carries its own read-write lock). Updates
	// and migration shipments are numbered independently by the coordinator
	// (see cluster.MigrateBatch), so each keeps its own replay history.
	updMu    sync.Mutex
	updates  replayLog
	migrates replayLog

	inflight sync.WaitGroup // in-flight request handlers
}

// replayLog makes one sequence space of mutating requests idempotent: a
// retried batch (same sequence number as the last applied one) returns the
// recorded result instead of mutating the store twice.
type replayLog struct {
	lastSeq    uint64
	lastResult []byte
}

// NewServer builds a server; call Serve or ListenAndServe to start it.
func NewServer(opts ServerOptions) *Server {
	s := &Server{
		store: opts.Store,
		met:   newServerMetrics(opts.Obs),
		conns: make(map[net.Conn]struct{}),
	}
	switch {
	case opts.Store == nil:
		s.optsErr = fmt.Errorf("transport: server has no store: open a site snapshot (dataio.OpenSiteStore) or hand one over")
	case opts.Graph != nil && opts.Graph != opts.Store.Graph():
		s.optsErr = fmt.Errorf("transport: ServerOptions.Graph is not the store's graph")
	}
	return s
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the listener is closed (by Shutdown
// or Close). It returns nil after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	if s.optsErr != nil {
		l.Close()
		return s.optsErr
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("transport: server already closed")
	}
	s.lis = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.draining || s.closed
			s.mu.Unlock()
			if stopped {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown drains the server: it stops accepting connections, refuses new
// requests with CodeDraining, waits for in-flight requests to finish (up
// to ctx), then closes all connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeConns()
	return err
}

// Close force-closes the server: listener and every connection, without
// waiting for in-flight work. Used by fault-injection tests to model a
// site dying mid-query.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.closeConns()
}

// closeConns closes every tracked connection.
func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// dropConn untracks and closes one connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// serveConn handshakes, then answers frames until the connection dies.
func (s *Server) serveConn(conn net.Conn) {
	defer s.dropConn(conn)
	s.met.activeConns.Add(1)
	defer s.met.activeConns.Add(-1)

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := readHandshake(br); err != nil {
		return
	}
	if err := writeHandshake(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	s.met.bytesIn.Add(int64(handshakeLen))
	s.met.bytesOut.Add(int64(handshakeLen))

	var wmu sync.Mutex // serializes response frames on this connection
	sem := make(chan struct{}, maxConnInflight)
	for {
		req, nIn, err := readFrame(br)
		if err != nil {
			return // client went away or sent garbage; drop the conn
		}
		s.met.bytesIn.Add(int64(nIn))
		s.met.requests.Inc()

		sem <- struct{}{}
		s.inflight.Add(1)
		go func(req frame) {
			defer func() { s.inflight.Done(); <-sem }()
			t0 := time.Now()
			typ, payload := s.handle(req)
			s.met.rpcNS[minMsg(req.typ)].ObserveDuration(time.Since(t0))
			if typ == MsgError {
				s.met.errors.Inc()
			}
			wmu.Lock()
			nOut, err := writeFrame(bw, typ, req.reqID, payload)
			if err == nil {
				err = bw.Flush()
			}
			wmu.Unlock()
			s.met.bytesOut.Add(int64(nOut))
			if err != nil {
				// A half-written response poisons the stream; kill the
				// connection so the read loop exits and the client redials.
				conn.Close()
			}
		}(req)
	}
}

// maxConnInflight caps concurrently handled requests per connection: ample
// headroom for a pipelining coordinator, small enough that a misbehaving
// client cannot spawn unbounded handler goroutines.
const maxConnInflight = 128

// minMsg clamps a message type into the rpcNS index range (unknown types
// land on the bad-request path but still need a valid index).
func minMsg(t byte) byte {
	if t > maxMsgType {
		return 0
	}
	return t
}

// handle processes one request and returns the response type and payload.
func (s *Server) handle(req frame) (byte, []byte) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining && req.typ != MsgPing {
		return MsgError, appendErrorPayload(nil, uint64(CodeDraining), "server is draining")
	}
	switch req.typ {
	case MsgPing:
		g := s.store.Graph()
		return MsgOK, appendSiteInfo(nil, SiteInfo{
			Triples:    s.store.NumTriples(),
			Vertices:   g.NumVertices(),
			Properties: g.NumProperties(),
		})

	case MsgUpdate:
		batch, err := DecodeUpdateBatch(req.payload)
		if err != nil {
			return MsgError, appendErrorPayload(nil, uint64(CodeBadRequest), err.Error())
		}
		return s.applyOnce(&s.updates, "update", MsgUpdateResult, batch.Seq, func() (rdf.ApplyStats, error) {
			// The delta first: the ops reference the IDs it assigns. A
			// conflict means this site's dictionaries diverged from the
			// coordinator's — it needs a fresh snapshot, not a retry.
			if err := batch.Delta.Apply(s.store.Graph()); err != nil {
				return rdf.ApplyStats{}, err
			}
			return s.store.ApplyResolved(batch.Ops), nil
		})

	case MsgMigrateBatch:
		batch, err := DecodeMigrateBatch(req.payload)
		if err != nil {
			return MsgError, appendErrorPayload(nil, uint64(CodeBadRequest), err.Error())
		}
		return s.applyOnce(&s.migrates, "migration", MsgMigrateResult, batch.Seq, func() (rdf.ApplyStats, error) {
			return s.store.ApplyResolved(batch.Ops), nil
		})

	case MsgQueryBatch:
		subs, err := DecodeQueryBatch(req.payload)
		if err != nil {
			return MsgError, appendErrorPayload(nil, uint64(CodeBadRequest), err.Error())
		}
		tabs := make([]*store.Table, len(subs))
		for i, q := range subs {
			if tabs[i], err = s.store.Match(q); err != nil {
				return MsgError, appendErrorPayload(nil, uint64(CodeInternal),
					fmt.Sprintf("batched subquery %d: %s", i, err))
			}
		}
		return MsgTableBatch, AppendTableBatch(nil, tabs)

	default:
		return MsgError, appendErrorPayload(nil, uint64(CodeBadRequest),
			fmt.Sprintf("unknown message type %d", req.typ))
	}
}

// applyOnce runs one mutating request under the sequence check of its
// replay log: the batch last applied is answered from the record, an older
// one is refused as stale, a newer one is applied and recorded. Sequence 0
// opts out of the check.
func (s *Server) applyOnce(log *replayLog, kind string, respType byte, seq uint64,
	apply func() (rdf.ApplyStats, error)) (byte, []byte) {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	if seq != 0 {
		if seq == log.lastSeq {
			return respType, log.lastResult
		}
		if seq < log.lastSeq {
			return MsgError, appendErrorPayload(nil, uint64(CodeBadRequest),
				fmt.Sprintf("stale %s batch %d (already at %d)", kind, seq, log.lastSeq))
		}
	}
	stats, err := apply()
	if err != nil {
		return MsgError, appendErrorPayload(nil, uint64(CodeInternal), err.Error())
	}
	payload := AppendUpdateResult(nil, cluster.SiteUpdateResult{Stats: stats})
	log.lastSeq, log.lastResult = seq, payload
	return respType, payload
}
