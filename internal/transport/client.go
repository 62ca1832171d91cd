package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/obs"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// ClientOptions tunes one site client.
type ClientOptions struct {
	// RequestTimeout bounds a single request end to end, including dialing,
	// retries, and backoff sleeps. A per-call cluster.SubOpts.Timeout
	// overrides it. Default 30s.
	RequestTimeout time.Duration
	// DialTimeout bounds one TCP dial attempt. Default 5s.
	DialTimeout time.Duration
	// MaxRetries is the number of additional attempts after the first
	// fails with a transient error. Default 3.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry; it doubles each
	// further retry. Default 50ms.
	RetryBackoff time.Duration
	// MaxConns caps the persistent connections to the site. Requests beyond
	// the cap pipeline onto existing connections (multiplexed by request
	// ID) instead of dialing, so N concurrent queries never open N sockets.
	// Default 2.
	MaxConns int
	// Obs receives client metrics. Nil disables instrumentation.
	Obs *obs.Registry
}

// withDefaults fills zero fields.
func (o ClientOptions) withDefaults() ClientOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxConns <= 0 {
		o.MaxConns = 2
	}
	return o
}

// Client talks to one mpc-site server. It implements cluster.Site, so a
// coordinator built with cluster.NewWithSites sees a remote process
// exactly as it sees an in-process store.
//
// The client keeps a small set of persistent connections (MaxConns) and
// pipelines many requests over them concurrently: each connection has a
// demultiplexing read loop that routes response frames to their waiting
// callers by request ID, so in-flight requests overlap instead of queueing
// one-per-connection. New connections are dialed only while every healthy
// connection is busy and the cap is not reached, and concurrent dials are
// serialized through a semaphore — a burst of N queries can never open N
// sockets.
//
// Transient failures (dial refused, connection dropped before a complete
// response) are retried on a fresh connection with exponential backoff, up
// to MaxRetries; subquery evaluation is read-only, so a retry can never
// double-apply work. Exhausted retries surface as ErrUnavailable, an
// expired deadline as ErrTimeout, a cancelled context as its ctx.Err(),
// and a failure reported by the site itself as *RemoteError — none of them
// retried further (except a lone draining refusal, which is terminal too:
// the coordinator should fail fast during shutdown).
type Client struct {
	addr string
	opts ClientOptions
	met  clientMetrics

	reqID   atomic.Uint64
	dialSem chan struct{} // at most one in-flight dial per client

	mu     sync.Mutex
	conns  []*muxConn
	closed bool
}

// muxConn is one persistent connection multiplexing many in-flight
// requests. Writers serialize whole frames under wmu; a single readLoop
// demultiplexes responses to the pending channels by request ID. Responses
// to abandoned requests (deadline, cancellation) are dropped.
type muxConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wmu  sync.Mutex // serializes frame writes + flushes

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	broken  bool
	failErr error
}

// muxReply is one demultiplexed response: a frame and its wire size, or
// the connection-level error that killed the stream.
type muxReply struct {
	f   frame
	n   int64
	err error
}

// register adds a pending request; it fails with the connection's fatal
// error if the stream already died.
func (mc *muxConn) register(reqID uint64, ch chan muxReply) error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.broken {
		return mc.failErr
	}
	mc.pending[reqID] = ch
	return nil
}

// unregister abandons a pending request; a late response will be dropped
// by the read loop.
func (mc *muxConn) unregister(reqID uint64) {
	mc.mu.Lock()
	delete(mc.pending, reqID)
	mc.mu.Unlock()
}

// numPending returns the in-flight request count (load metric for
// least-busy connection selection).
func (mc *muxConn) numPending() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.pending)
}

// isBroken reports whether the stream has died.
func (mc *muxConn) isBroken() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.broken
}

// fail marks the connection dead and delivers err to every pending
// request. Idempotent.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.broken {
		mc.mu.Unlock()
		return
	}
	mc.broken = true
	mc.failErr = err
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		ch <- muxReply{err: err} // buffered; never blocks
	}
}

// readLoop demultiplexes response frames until the stream dies, then
// fails every pending request with the terminal error.
func (mc *muxConn) readLoop(c *Client) {
	for {
		resp, n, err := readFrame(mc.br)
		if err != nil {
			mc.fail(err)
			c.removeConn(mc)
			return
		}
		c.met.bytesIn.Add(int64(n))
		mc.mu.Lock()
		ch, ok := mc.pending[resp.reqID]
		if ok {
			delete(mc.pending, resp.reqID)
		}
		mc.mu.Unlock()
		if ok {
			ch <- muxReply{f: resp, n: int64(n)}
		}
		// Unknown request ID: response to an abandoned (timed-out or
		// cancelled) request; drop it and keep the connection.
	}
}

// NewClient builds a client without touching the network; the first
// request dials. Use Ping to verify reachability eagerly.
func NewClient(addr string, opts ClientOptions) *Client {
	o := opts.withDefaults()
	return &Client{
		addr:    addr,
		opts:    o,
		met:     newClientMetrics(o.Obs),
		dialSem: make(chan struct{}, 1),
	}
}

// Dial builds a client and verifies the server responds to a ping.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	c := NewClient(addr, opts)
	if _, err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Addr returns the server address this client targets.
func (c *Client) Addr() string { return c.addr }

// Close tears down every connection. In-flight requests fail with the
// close error.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.closed = true
	c.mu.Unlock()
	for _, mc := range conns {
		mc.fail(fmt.Errorf("transport: client closed"))
	}
}

// removeConn forgets a dead connection.
func (c *Client) removeConn(dead *muxConn) {
	c.mu.Lock()
	for i, mc := range c.conns {
		if mc == dead {
			c.conns = append(c.conns[:i], c.conns[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// pickConn returns the healthy connection with the fewest in-flight
// requests, and whether dialing another one is worthwhile (every healthy
// connection is busy and the cap allows more).
func (c *Client) pickConn() (*muxConn, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, fmt.Errorf("transport: client closed")
	}
	var best *muxConn
	bestLoad := 0
	live := 0
	for _, mc := range c.conns {
		if mc.isBroken() {
			continue
		}
		live++
		load := mc.numPending()
		if best == nil || load < bestLoad {
			best, bestLoad = mc, load
		}
	}
	needDial := (best == nil || bestLoad > 0) && live < c.opts.MaxConns
	return best, needDial, nil
}

// grabConn returns a connection for one request: the least-busy healthy
// one, or a freshly dialed one when all are busy and the cap allows. The
// dial semaphore bounds concurrent dials to one, so a burst of requests
// against a cold client performs a single handshake and shares it.
func (c *Client) grabConn(ctx context.Context, deadline time.Time) (*muxConn, error) {
	mc, needDial, err := c.pickConn()
	if err != nil {
		return nil, err
	}
	if !needDial {
		return mc, nil
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case c.dialSem <- struct{}{}:
	case <-timer.C:
		if mc != nil {
			return mc, nil // no dial budget left: pipeline onto a busy conn
		}
		return nil, os.ErrDeadlineExceeded
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.dialSem }()
	// Re-check under the dial slot: the dialer we waited on may have
	// produced an idle connection.
	mc, needDial, err = c.pickConn()
	if err != nil {
		return nil, err
	}
	if !needDial {
		return mc, nil
	}
	nc, err := c.dial(deadline)
	if err != nil {
		if mc != nil {
			return mc, nil // dial failed but a live conn exists: use it
		}
		return nil, err
	}
	return nc, nil
}

// dial opens, handshakes, and registers one new connection, then starts
// its demux loop.
func (c *Client) dial(deadline time.Time) (*muxConn, error) {
	dialTimeout := c.opts.DialTimeout
	if remain := time.Until(deadline); remain < dialTimeout {
		dialTimeout = remain
	}
	if dialTimeout <= 0 {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, ErrTimeout)
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c.met.dials.Inc()
	mc := &muxConn{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 64<<10),
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint64]chan muxReply),
	}
	conn.SetDeadline(deadline)
	if err := writeHandshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	if err := readHandshake(mc.br); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{}) // readLoop blocks indefinitely between frames
	c.met.bytesOut.Add(int64(handshakeLen))
	c.met.bytesIn.Add(int64(handshakeLen))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("transport: client closed")
	}
	c.conns = append(c.conns, mc)
	c.mu.Unlock()
	go mc.readLoop(c)
	return mc, nil
}

// roundTrip sends one request and reads its response, retrying transient
// failures on fresh connections. It returns the response frame and the
// total bytes moved (both directions, all attempts).
func (c *Client) roundTrip(ctx context.Context, typ byte, payload []byte, timeout time.Duration) (frame, int64, error) {
	deadline := time.Now().Add(timeout)
	var total int64
	var lastErr error

	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			backoff := c.opts.RetryBackoff << (attempt - 1)
			if remain := time.Until(deadline); backoff > remain {
				// Not enough budget left for a sleep plus an attempt:
				// give up rather than blow through the deadline.
				break
			}
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return frame{}, total, fmt.Errorf("transport: %s %s: %w", msgName(typ), c.addr, ctx.Err())
			}
		}

		resp, n, err := c.attempt(ctx, typ, payload, deadline)
		total += n
		if err == nil {
			return resp, total, nil
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Caller abandoned the request; terminal, never retried.
			c.met.errors.Inc()
			return frame{}, total, fmt.Errorf("transport: %s %s: %w", msgName(typ), c.addr, err)
		}
		if isDeadline(err) {
			c.met.timeouts.Inc()
			return frame{}, total, fmt.Errorf("transport: %s %s: %w: %v", msgName(typ), c.addr, ErrTimeout, err)
		}
		if !isTransient(err) {
			c.met.errors.Inc()
			return frame{}, total, fmt.Errorf("transport: %s %s: %w", msgName(typ), c.addr, err)
		}
		if attempt >= c.opts.MaxRetries {
			break
		}
	}
	c.met.errors.Inc()
	return frame{}, total, fmt.Errorf("transport: %s %s after %d attempts: %w (last error: %v)",
		msgName(typ), c.addr, c.opts.MaxRetries+1, ErrUnavailable, lastErr)
}

// attempt performs one request/response exchange over a multiplexed
// connection: register the request ID, write the frame, wait for the demux
// loop to deliver the matching response (or the deadline/cancellation).
// Write failures poison the whole stream; a timeout or cancellation merely
// abandons this request and keeps the connection for its neighbors.
func (c *Client) attempt(ctx context.Context, typ byte, payload []byte, deadline time.Time) (frame, int64, error) {
	mc, err := c.grabConn(ctx, deadline)
	if err != nil {
		return frame{}, 0, err
	}
	reqID := c.reqID.Add(1)
	ch := make(chan muxReply, 1)
	if err := mc.register(reqID, ch); err != nil {
		return frame{}, 0, err
	}

	mc.wmu.Lock()
	mc.conn.SetWriteDeadline(deadline)
	nOut, err := writeFrame(mc.bw, typ, reqID, payload)
	if err == nil {
		err = mc.bw.Flush()
	}
	mc.wmu.Unlock()
	c.met.bytesOut.Add(int64(nOut))
	if err != nil {
		// A partial frame poisons the stream for every pipelined request.
		mc.unregister(reqID)
		mc.fail(err)
		c.removeConn(mc)
		return frame{}, int64(nOut), err
	}

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return frame{}, int64(nOut), r.err
		}
		return r.f, int64(nOut) + r.n, nil
	case <-timer.C:
		mc.unregister(reqID)
		return frame{}, int64(nOut), os.ErrDeadlineExceeded
	case <-ctx.Done():
		mc.unregister(reqID)
		return frame{}, int64(nOut), ctx.Err()
	}
}

// call is roundTrip plus MsgError decoding and latency recording.
func (c *Client) call(ctx context.Context, typ byte, payload []byte, timeout time.Duration) (frame, int64, error) {
	t0 := time.Now()
	resp, n, err := c.roundTrip(ctx, typ, payload, timeout)
	c.met.rpcNS[typ].ObserveDuration(time.Since(t0))
	if err != nil {
		return frame{}, n, err
	}
	if resp.typ == MsgError {
		re, derr := decodeErrorPayload(resp.payload)
		if derr != nil {
			return frame{}, n, derr
		}
		c.met.errors.Inc()
		return frame{}, n, re
	}
	return resp, n, nil
}

// Ping checks that the server is reachable and speaks the protocol, and
// returns what the site reports about itself.
func (c *Client) Ping() (SiteInfo, error) {
	resp, _, err := c.call(context.Background(), MsgPing, nil, c.opts.RequestTimeout)
	if err != nil {
		return SiteInfo{}, err
	}
	if resp.typ != MsgOK {
		return SiteInfo{}, fmt.Errorf("transport: ping: unexpected %s response", msgName(resp.typ))
	}
	return decodeSiteInfo(resp.payload)
}

// ApplyUpdate implements cluster.SiteUpdater: it ships this site's share of
// a committed update batch, which the site applies to its dictionaries and
// store. Unlike queries, an update mutates the site — but retries are still
// safe: the batch's sequence number makes server-side replay idempotent
// (a re-delivered batch returns the recorded result without reapplying).
func (c *Client) ApplyUpdate(ctx context.Context, batch cluster.UpdateBatch) (cluster.SiteUpdateResult, error) {
	payload := AppendUpdateBatch(make([]byte, 0, 64+13*len(batch.Ops)), batch)
	resp, _, err := c.call(ctx, MsgUpdate, payload, c.opts.RequestTimeout)
	if err != nil {
		return cluster.SiteUpdateResult{}, err
	}
	if resp.typ != MsgUpdateResult {
		return cluster.SiteUpdateResult{}, fmt.Errorf("transport: update: unexpected %s response", msgName(resp.typ))
	}
	return DecodeUpdateResult(resp.payload)
}

// ApplyMigrate implements cluster.SiteMigrator: it ships one migration
// phase's triples to the site's store.
// Retries are safe by the same mechanism as updates — the shipment's
// sequence number makes server-side replay idempotent.
func (c *Client) ApplyMigrate(ctx context.Context, batch cluster.MigrateBatch) (cluster.SiteUpdateResult, error) {
	payload := AppendMigrateBatch(make([]byte, 0, 16+13*len(batch.Ops)), batch)
	resp, n, err := c.call(ctx, MsgMigrateBatch, payload, c.opts.RequestTimeout)
	if err != nil {
		return cluster.SiteUpdateResult{}, err
	}
	if resp.typ != MsgMigrateResult {
		return cluster.SiteUpdateResult{}, fmt.Errorf("transport: migrate: unexpected %s response", msgName(resp.typ))
	}
	c.met.migBytes.Add(n)
	return DecodeUpdateResult(resp.payload)
}

// ExecuteSub implements cluster.Site: a batch of one.
func (c *Client) ExecuteSub(ctx context.Context, sub *sparql.Query, opts cluster.SubOpts) (*store.Table, cluster.SubStats, error) {
	tabs, st, err := c.ExecuteSubBatch(ctx, []*sparql.Query{sub}, opts)
	if err != nil {
		return nil, st, err
	}
	return tabs[0], st, nil
}

// ExecuteSubBatch implements cluster.BatchSite: it evaluates all the
// subqueries of one plan destined for this site in a single round trip —
// one request frame, one response frame — and returns one table per
// subquery, in order. The coordinator uses it to collapse per-subquery
// RPC latencies when a decomposed query sends several subqueries to the
// same site.
func (c *Client) ExecuteSubBatch(ctx context.Context, subs []*sparql.Query, opts cluster.SubOpts) ([]*store.Table, cluster.SubStats, error) {
	timeout := c.opts.RequestTimeout
	if opts.Timeout > 0 {
		timeout = opts.Timeout
	}
	payload := AppendQueryBatch(make([]byte, 0, 64+256*len(subs)), subs)
	t0 := time.Now()
	resp, n, err := c.call(ctx, MsgQueryBatch, payload, timeout)
	st := cluster.SubStats{BytesShipped: n, WireTime: time.Since(t0)}
	if err != nil {
		return nil, st, err
	}
	if resp.typ != MsgTableBatch {
		return nil, st, fmt.Errorf("transport: query batch: unexpected %s response", msgName(resp.typ))
	}
	tabs, err := DecodeTableBatch(resp.payload)
	if err != nil {
		return nil, st, err
	}
	if len(tabs) != len(subs) {
		return nil, st, fmt.Errorf("transport: query batch: %d tables for %d subqueries", len(tabs), len(subs))
	}
	return tabs, st, nil
}
