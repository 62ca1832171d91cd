package transport

import "mpc/internal/obs"

// requestTypes are the message types a client sends; each gets a latency
// histogram on both ends.
var requestTypes = []byte{MsgPing, MsgQueryBatch, MsgUpdate, MsgMigrateBatch}

// clientMetrics holds the client's pre-resolved instrument handles. Built
// from a nil registry every handle is nil and recording is a no-op (see
// internal/obs).
type clientMetrics struct {
	bytesOut *obs.Counter // transport.bytes_out: request bytes written
	bytesIn  *obs.Counter // transport.bytes_in: response bytes read
	retries  *obs.Counter // transport.retries: re-dispatched attempts
	timeouts *obs.Counter // transport.timeouts: requests that hit their deadline
	errors   *obs.Counter // transport.errors: requests that failed terminally
	dials    *obs.Counter // transport.dials: new connections established
	// migBytes isolates migration-shipment wire bytes (request +
	// response) from query and update traffic, so a benchmark can report
	// "bytes shipped by the migration" while queries keep running.
	migBytes *obs.Counter // transport.migrate_bytes

	// rpcNS holds one latency histogram per request type the client sends
	// (transport.rpc_ns.query_batch etc.), indexed by message type byte.
	rpcNS [maxMsgType + 1]*obs.Histogram
}

// newClientMetrics resolves the handles; nil registry → all-disabled.
func newClientMetrics(r *obs.Registry) clientMetrics {
	if r == nil {
		return clientMetrics{}
	}
	m := clientMetrics{
		bytesOut: r.Counter("transport.bytes_out"),
		bytesIn:  r.Counter("transport.bytes_in"),
		retries:  r.Counter("transport.retries"),
		timeouts: r.Counter("transport.timeouts"),
		errors:   r.Counter("transport.errors"),
		dials:    r.Counter("transport.dials"),
		migBytes: r.Counter("transport.migrate_bytes"),
	}
	for _, t := range requestTypes {
		m.rpcNS[t] = r.Histogram("transport.rpc_ns." + msgName(t))
	}
	return m
}

// serverMetrics holds the server's pre-resolved instrument handles.
type serverMetrics struct {
	bytesIn     *obs.Counter // transport.server.bytes_in
	bytesOut    *obs.Counter // transport.server.bytes_out
	requests    *obs.Counter // transport.server.requests
	errors      *obs.Counter // transport.server.errors: MsgError responses sent
	activeConns *obs.Gauge   // transport.server.active_conns

	// rpcNS is one handling-latency histogram per request type
	// (transport.server.rpc_ns.query_batch etc.).
	rpcNS [maxMsgType + 1]*obs.Histogram
}

// newServerMetrics resolves the handles; nil registry → all-disabled.
func newServerMetrics(r *obs.Registry) serverMetrics {
	if r == nil {
		return serverMetrics{}
	}
	m := serverMetrics{
		bytesIn:     r.Counter("transport.server.bytes_in"),
		bytesOut:    r.Counter("transport.server.bytes_out"),
		requests:    r.Counter("transport.server.requests"),
		errors:      r.Counter("transport.server.errors"),
		activeConns: r.Gauge("transport.server.active_conns"),
	}
	for _, t := range requestTypes {
		m.rpcNS[t] = r.Histogram("transport.server.rpc_ns." + msgName(t))
	}
	return m
}
