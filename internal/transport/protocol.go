// Package transport is the real network layer of the cluster: a
// length-prefixed binary wire protocol over TCP, a server (cmd/mpc-site)
// that holds one partition's store, and a pipelined client that implements
// cluster.Site — so a cluster can run with each partition in its own
// process instead of a goroutine, with measured bytes and latencies in
// place of the simulator's per-tuple cost model.
//
// # Wire protocol
//
// Every connection starts with a 6-byte handshake in each direction:
// the magic "MPCT", a version byte, and a zero pad. After the handshake,
// both directions carry frames:
//
//	uint32 LE payload length
//	uint8  message type
//	uint64 LE request ID
//	payload
//
// The request ID of a response echoes the request ID of its request, and
// that correlation is the whole concurrency story: a connection carries
// any number of in-flight requests, responses may arrive in any order
// (the server handles each request on its own goroutine and writes
// responses in completion order), and each side matches frames by ID —
// the client's per-connection demux loop routes responses to waiting
// callers and drops responses to abandoned requests. Payload encodings are
// hand-rolled and allocation-light: binding tables reuse the flat
// row-major layout of store.Table (see store.AppendTable), everything else
// uses uvarint framing.
//
// A site is a store: it is opened from a per-site snapshot (or handed a
// store in-process) before it listens, so the protocol has no bring-up
// messages — only a probe, a read RPC and two write RPCs. The nine message
// types:
//
//	MsgPing         → MsgOK                      liveness probe; the reply carries SiteInfo
//	MsgQueryBatch   → MsgTableBatch|MsgError     evaluate the subqueries of one plan bound for this site
//	MsgUpdate       → MsgUpdateResult|MsgError   apply this site's share of a committed update batch
//	MsgMigrateBatch → MsgMigrateResult|MsgError  apply a migration shipment to the store
//
// MsgError is a valid response to any request; it carries a numeric code
// and a message and is surfaced by the client as a *RemoteError.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"mpc/internal/cluster"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// Handshake constants. The version byte is bumped on any incompatible
// frame or payload change; peers with mismatched versions refuse the
// connection at handshake time rather than misparsing frames later.
const (
	Magic   = "MPCT"
	Version = 5
)

// handshakeLen is magic + version + one pad byte.
const handshakeLen = len(Magic) + 2

// Message types.
const (
	MsgPing byte = iota + 1
	MsgOK
	MsgError
	MsgUpdate
	MsgUpdateResult
	MsgQueryBatch
	MsgTableBatch
	MsgMigrateBatch
	MsgMigrateResult
)

// maxMsgType is the highest defined message type; metrics indexing clamps
// to it (see minMsg).
const maxMsgType = MsgMigrateResult

// msgName names a message type for metrics and errors.
func msgName(t byte) string {
	switch t {
	case MsgPing:
		return "ping"
	case MsgOK:
		return "ok"
	case MsgError:
		return "error"
	case MsgUpdate:
		return "update"
	case MsgUpdateResult:
		return "update_result"
	case MsgQueryBatch:
		return "query_batch"
	case MsgTableBatch:
		return "table_batch"
	case MsgMigrateBatch:
		return "migrate_batch"
	case MsgMigrateResult:
		return "migrate_result"
	default:
		return fmt.Sprintf("type_%d", t)
	}
}

// MaxFrameBytes bounds a single frame payload. Large enough for the
// biggest result table a site returns, small enough that a corrupt length
// prefix cannot drive an unbounded allocation.
const MaxFrameBytes = 1 << 30

// frameHeaderLen is payload length (4) + type (1) + request ID (8).
const frameHeaderLen = 13

// eagerFrameBytes is the largest payload readFrame allocates in full from
// the header alone. A longer body grows its buffer as its bytes arrive, so
// a header claiming up to MaxFrameBytes costs at most this much until the
// peer actually sends the data.
const eagerFrameBytes = 4 << 20

// writeHandshake sends the protocol preamble.
func writeHandshake(w io.Writer) error {
	var hs [handshakeLen]byte
	copy(hs[:], Magic)
	hs[len(Magic)] = Version
	_, err := w.Write(hs[:])
	return err
}

// readHandshake validates the peer's preamble.
func readHandshake(r io.Reader) error {
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(r, hs[:]); err != nil {
		return fmt.Errorf("transport: handshake: %w", err)
	}
	if string(hs[:len(Magic)]) != Magic {
		return fmt.Errorf("transport: bad magic %q", hs[:len(Magic)])
	}
	if hs[len(Magic)] != Version {
		return fmt.Errorf("transport: protocol version %d, want %d", hs[len(Magic)], Version)
	}
	return nil
}

// frame is one decoded message.
type frame struct {
	typ     byte
	reqID   uint64
	payload []byte
}

// writeFrame sends one frame: header then payload. Returns the total
// bytes written.
func writeFrame(w io.Writer, typ byte, reqID uint64, payload []byte) (int, error) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = typ
	binary.LittleEndian.PutUint64(hdr[5:], reqID)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return frameHeaderLen, err
		}
	}
	return frameHeaderLen + len(payload), nil
}

// readFrame reads one frame. Returns the frame and the total bytes read.
func readFrame(r io.Reader) (frame, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n > MaxFrameBytes {
		return frame{}, frameHeaderLen, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	f := frame{typ: hdr[4], reqID: binary.LittleEndian.Uint64(hdr[5:])}
	if n > 0 {
		var err error
		if f.payload, err = readPayload(r, int(n)); err != nil {
			return frame{}, frameHeaderLen, fmt.Errorf("transport: frame body: %w", err)
		}
	}
	return f, frameHeaderLen + int(n), nil
}

// readPayload reads an n-byte frame body. Up to eagerFrameBytes it is one
// allocation; beyond that the buffer doubles as the bytes arrive.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, eagerFrameBytes))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for len(buf) < n {
		have := len(buf)
		buf = slices.Grow(buf, min(n-have, have))[:min(n, 2*have)]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Query payload codec: uvarint select count + names, uvarint pattern
// count + three terms per pattern, each term a var flag byte + string.

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendTerm appends one query term.
func appendTerm(buf []byte, t sparql.Term) []byte {
	if t.IsVar {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendString(buf, t.Value)
}

// AppendQuery appends the wire encoding of q to buf. Pushed-down FILTER
// constraints travel as a trailing section — uvarint count plus one
// rendered expression per filter, re-parsed on decode — that is written
// only when present, so filter-free payloads are byte-identical to the
// pre-filter encoding and either side of the pair can be the older one.
func AppendQuery(buf []byte, q *sparql.Query) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(q.Select)))
	for _, v := range q.Select {
		buf = appendString(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Patterns)))
	for _, p := range q.Patterns {
		buf = appendTerm(buf, p.S)
		buf = appendTerm(buf, p.P)
		buf = appendTerm(buf, p.O)
	}
	if len(q.Filters) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(q.Filters)))
		for _, f := range q.Filters {
			buf = appendString(buf, f.String())
		}
	}
	return buf
}

// queryDecoder walks a query payload.
type queryDecoder struct {
	data []byte
	pos  int
}

// maxQueryStrings bounds term/select counts so a corrupt payload cannot
// pre-allocate unbounded slices.
const maxQueryStrings = 1 << 16

func (d *queryDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("transport: codec: truncated %s at byte %d", what, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *queryDecoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if d.pos+int(n) > len(d.data) || n > uint64(len(d.data)) {
		return "", fmt.Errorf("transport: codec: truncated %s at byte %d", what, d.pos)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *queryDecoder) term() (sparql.Term, error) {
	if d.pos >= len(d.data) {
		return sparql.Term{}, fmt.Errorf("transport: codec: truncated term at byte %d", d.pos)
	}
	flag := d.data[d.pos]
	d.pos++
	if flag > 1 {
		return sparql.Term{}, fmt.Errorf("transport: codec: bad term flag %d", flag)
	}
	v, err := d.str("term value")
	if err != nil {
		return sparql.Term{}, err
	}
	return sparql.Term{IsVar: flag == 1, Value: v}, nil
}

// DecodeQuery decodes a query payload produced by AppendQuery.
func DecodeQuery(data []byte) (*sparql.Query, error) {
	d := &queryDecoder{data: data}
	nSel, err := d.uvarint("select count")
	if err != nil {
		return nil, err
	}
	if nSel > maxQueryStrings {
		return nil, fmt.Errorf("transport: codec: %d select variables exceeds limit", nSel)
	}
	q := &sparql.Query{}
	for i := uint64(0); i < nSel; i++ {
		v, err := d.str("select variable")
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, v)
	}
	nPat, err := d.uvarint("pattern count")
	if err != nil {
		return nil, err
	}
	if nPat > maxQueryStrings {
		return nil, fmt.Errorf("transport: codec: %d patterns exceeds limit", nPat)
	}
	for i := uint64(0); i < nPat; i++ {
		var tp sparql.TriplePattern
		if tp.S, err = d.term(); err != nil {
			return nil, err
		}
		if tp.P, err = d.term(); err != nil {
			return nil, err
		}
		if tp.O, err = d.term(); err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, tp)
	}
	if d.pos != len(data) {
		// Optional trailing filter section (present only when non-empty).
		nFil, err := d.uvarint("filter count")
		if err != nil {
			return nil, err
		}
		if nFil == 0 || nFil > maxQueryStrings {
			return nil, fmt.Errorf("transport: codec: bad filter count %d", nFil)
		}
		for i := uint64(0); i < nFil; i++ {
			s, err := d.str("filter expression")
			if err != nil {
				return nil, err
			}
			e, err := sparql.ParseExpr(s)
			if err != nil {
				return nil, fmt.Errorf("transport: codec: filter %q: %v", s, err)
			}
			q.Filters = append(q.Filters, e)
		}
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("transport: codec: %d trailing bytes", len(data)-d.pos)
	}
	return q, nil
}

// Query-batch payload codec (MsgQueryBatch): every subquery of one plan
// destined for the same site rides in a single frame —
//
//	uvarint query count, then per query: uvarint byte length + AppendQuery
//	bytes
//
// The response (MsgTableBatch) mirrors it: uvarint table count, then per
// table uvarint byte length + store.AppendTable bytes, in query order.
// Batching collapses k round-trip latencies (and k frame headers) into
// one without changing any individual payload encoding.

// maxBatchQueries bounds a decoded batch; a plan decomposes into at most
// a handful of subqueries, so this is pure corrupt-input armor.
const maxBatchQueries = 1 << 16

// AppendQueryBatch appends the wire encoding of a subquery batch.
func AppendQueryBatch(buf []byte, subs []*sparql.Query) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(subs)))
	var scratch [256]byte // typical subqueries encode without leaving the stack
	qbuf := scratch[:0]
	for _, q := range subs {
		qbuf = AppendQuery(qbuf[:0], q)
		buf = binary.AppendUvarint(buf, uint64(len(qbuf)))
		buf = append(buf, qbuf...)
	}
	return buf
}

// DecodeQueryBatch decodes a payload produced by AppendQueryBatch.
func DecodeQueryBatch(data []byte) ([]*sparql.Query, error) {
	d := &queryDecoder{data: data}
	n, err := d.uvarint("batch query count")
	if err != nil {
		return nil, err
	}
	if n > maxBatchQueries || n > uint64(len(data)-d.pos) {
		// Every batched query takes at least its length byte, so a count
		// above the bytes left is corrupt — and must not size the slice.
		return nil, fmt.Errorf("transport: codec: %d batched queries exceeds limit", n)
	}
	subs := make([]*sparql.Query, 0, n)
	for i := uint64(0); i < n; i++ {
		qlen, err := d.uvarint("batched query length")
		if err != nil {
			return nil, err
		}
		if qlen > uint64(len(data)-d.pos) {
			return nil, fmt.Errorf("transport: codec: truncated batched query %d", i)
		}
		q, err := DecodeQuery(data[d.pos : d.pos+int(qlen)])
		if err != nil {
			return nil, fmt.Errorf("transport: codec: batched query %d: %w", i, err)
		}
		d.pos += int(qlen)
		subs = append(subs, q)
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("transport: codec: %d trailing bytes", len(data)-d.pos)
	}
	return subs, nil
}

// AppendTableBatch appends the wire encoding of the per-query result
// tables of a batch. The buffer is grown once, up front, to hold the whole
// encoding, so a batch of one large table costs one allocation and one copy.
func AppendTableBatch(buf []byte, tabs []*store.Table) []byte {
	total := binary.MaxVarintLen64
	for _, tab := range tabs {
		total += binary.MaxVarintLen64 + store.EncodedTableSize(tab)
	}
	if need := len(buf) + total; need > cap(buf) {
		buf = append(make([]byte, 0, need), buf...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(tabs)))
	for _, tab := range tabs {
		buf = binary.AppendUvarint(buf, uint64(store.EncodedTableSize(tab)))
		buf = store.AppendTable(buf, tab)
	}
	return buf
}

// DecodeTableBatch decodes a payload produced by AppendTableBatch.
func DecodeTableBatch(data []byte) ([]*store.Table, error) {
	d := &queryDecoder{data: data}
	n, err := d.uvarint("batch table count")
	if err != nil {
		return nil, err
	}
	if n > maxBatchQueries || n > uint64(len(data)-d.pos) {
		return nil, fmt.Errorf("transport: codec: %d batched tables exceeds limit", n)
	}
	tabs := make([]*store.Table, 0, n)
	for i := uint64(0); i < n; i++ {
		tlen, err := d.uvarint("batched table length")
		if err != nil {
			return nil, err
		}
		if tlen > uint64(len(data)-d.pos) {
			return nil, fmt.Errorf("transport: codec: truncated batched table %d", i)
		}
		tab, used, err := store.DecodeTable(data[d.pos : d.pos+int(tlen)])
		if err != nil {
			return nil, fmt.Errorf("transport: codec: batched table %d: %w", i, err)
		}
		if used != int(tlen) {
			return nil, fmt.Errorf("transport: codec: batched table %d: %d trailing bytes", i, int(tlen)-used)
		}
		d.pos += int(tlen)
		tabs = append(tabs, tab)
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("transport: codec: %d trailing bytes", len(data)-d.pos)
	}
	return tabs, nil
}

// Op-list codec, shared by the two write RPCs: uvarint op count, then per
// op one insert-flag byte + uvarint S, P, O. Ops carry resolved dense IDs,
// not raw terms — the sites share the coordinator's dictionaries, so IDs
// mean the same thing on both ends — and every op in a list is for the
// receiving site's store.

// maxUpdateOps bounds a decoded batch so a corrupt count cannot drive an
// unbounded allocation.
const maxUpdateOps = 1 << 24

// minOpBytes is the shortest op encoding: the flag byte and three one-byte
// uvarints. It bounds an op count by the bytes left to decode.
const minOpBytes = 4

// appendOps appends the wire encoding of an op list.
func appendOps(buf []byte, ops []rdf.ResolvedUpdate) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		var flag byte
		if op.Insert {
			flag = 1
		}
		buf = append(buf, flag)
		buf = binary.AppendUvarint(buf, uint64(uint32(op.T.S)))
		buf = binary.AppendUvarint(buf, uint64(uint32(op.T.P)))
		buf = binary.AppendUvarint(buf, uint64(uint32(op.T.O)))
	}
	return buf
}

// ops decodes an op list and requires it to end the payload.
func (d *queryDecoder) ops() ([]rdf.ResolvedUpdate, error) {
	nOps, err := d.uvarint("op count")
	if err != nil {
		return nil, err
	}
	if nOps > maxUpdateOps || nOps > uint64(len(d.data)-d.pos)/minOpBytes {
		return nil, fmt.Errorf("transport: codec: %d ops exceeds limit", nOps)
	}
	ops := make([]rdf.ResolvedUpdate, nOps)
	for i := range ops {
		if d.pos >= len(d.data) {
			return nil, fmt.Errorf("transport: codec: truncated op %d", i)
		}
		flag := d.data[d.pos]
		d.pos++
		if flag > 1 {
			return nil, fmt.Errorf("transport: codec: bad op flag %d", flag)
		}
		ops[i].Insert = flag == 1
		var ids [3]uint64
		for j, what := range [...]string{"op S", "op P", "op O"} {
			if ids[j], err = d.uvarint(what); err != nil {
				return nil, err
			}
			if ids[j] > 1<<32-1 {
				return nil, fmt.Errorf("transport: codec: %s %d out of range", what, ids[j])
			}
		}
		ops[i].T = rdf.Triple{
			S: rdf.VertexID(ids[0]),
			P: rdf.PropertyID(ids[1]),
			O: rdf.VertexID(ids[2]),
		}
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("transport: codec: %d trailing bytes", len(d.data)-d.pos)
	}
	return ops, nil
}

// Update payload codec (MsgUpdate): one site's share of a committed batch —
//
//	uvarint Seq
//	uvarint BaseVertices,   uvarint count, count strings (dict delta)
//	uvarint BaseProperties, uvarint count, count strings
//	op list
//
// The delta pins the same term→ID assignment on the site's dictionaries
// before the ops reference the new IDs.

// AppendUpdateBatch appends the wire encoding of an update batch.
func AppendUpdateBatch(buf []byte, b cluster.UpdateBatch) []byte {
	buf = binary.AppendUvarint(buf, b.Seq)
	buf = binary.AppendUvarint(buf, uint64(b.Delta.BaseVertices))
	buf = binary.AppendUvarint(buf, uint64(len(b.Delta.NewVertices)))
	for _, s := range b.Delta.NewVertices {
		buf = appendString(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(b.Delta.BaseProperties))
	buf = binary.AppendUvarint(buf, uint64(len(b.Delta.NewProperties)))
	for _, s := range b.Delta.NewProperties {
		buf = appendString(buf, s)
	}
	return appendOps(buf, b.Ops)
}

// DecodeUpdateBatch decodes a payload produced by AppendUpdateBatch.
func DecodeUpdateBatch(data []byte) (cluster.UpdateBatch, error) {
	d := &queryDecoder{data: data}
	var b cluster.UpdateBatch
	var err error
	if b.Seq, err = d.uvarint("seq"); err != nil {
		return cluster.UpdateBatch{}, err
	}
	strs := func(what string) (base int, out []string, err error) {
		bv, err := d.uvarint(what + " base")
		if err != nil {
			return 0, nil, err
		}
		n, err := d.uvarint(what + " count")
		if err != nil {
			return 0, nil, err
		}
		if n > maxUpdateOps {
			return 0, nil, fmt.Errorf("transport: codec: %d %s terms exceeds limit", n, what)
		}
		for i := uint64(0); i < n; i++ {
			s, err := d.str(what + " term")
			if err != nil {
				return 0, nil, err
			}
			out = append(out, s)
		}
		return int(bv), out, nil
	}
	if b.Delta.BaseVertices, b.Delta.NewVertices, err = strs("vertex"); err != nil {
		return cluster.UpdateBatch{}, err
	}
	if b.Delta.BaseProperties, b.Delta.NewProperties, err = strs("property"); err != nil {
		return cluster.UpdateBatch{}, err
	}
	if b.Ops, err = d.ops(); err != nil {
		return cluster.UpdateBatch{}, err
	}
	return b, nil
}

// Update-result payload codec (MsgUpdateResult, MsgMigrateResult): the
// site store's apply stats as three uvarints.

// AppendUpdateResult appends the wire encoding of an update result.
func AppendUpdateResult(buf []byte, r cluster.SiteUpdateResult) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Stats.Inserted))
	buf = binary.AppendUvarint(buf, uint64(r.Stats.Deleted))
	return binary.AppendUvarint(buf, uint64(r.Stats.NotFound))
}

// uvarints decodes exactly len(out) uvarints that must fill the payload.
func uvarints(data []byte, what string, out ...*int) error {
	d := &queryDecoder{data: data}
	for _, p := range out {
		v, err := d.uvarint(what)
		if err != nil {
			return err
		}
		*p = int(v)
	}
	if d.pos != len(data) {
		return fmt.Errorf("transport: codec: %s: %d trailing bytes", what, len(data)-d.pos)
	}
	return nil
}

// DecodeUpdateResult decodes a payload produced by AppendUpdateResult.
func DecodeUpdateResult(data []byte) (cluster.SiteUpdateResult, error) {
	var r cluster.SiteUpdateResult
	if err := uvarints(data, "update result", &r.Stats.Inserted, &r.Stats.Deleted, &r.Stats.NotFound); err != nil {
		return cluster.SiteUpdateResult{}, err
	}
	return r, nil
}

// Migration payload codec (MsgMigrateBatch): the idempotency seq and the
// op list. No dictionary delta — every shipped triple is live, so its terms
// are already interned at every site.

// AppendMigrateBatch appends the wire encoding of a migration shipment.
func AppendMigrateBatch(buf []byte, b cluster.MigrateBatch) []byte {
	return appendOps(binary.AppendUvarint(buf, b.Seq), b.Ops)
}

// DecodeMigrateBatch decodes a payload produced by AppendMigrateBatch.
func DecodeMigrateBatch(data []byte) (cluster.MigrateBatch, error) {
	d := &queryDecoder{data: data}
	var b cluster.MigrateBatch
	var err error
	if b.Seq, err = d.uvarint("seq"); err != nil {
		return cluster.MigrateBatch{}, err
	}
	if b.Ops, err = d.ops(); err != nil {
		return cluster.MigrateBatch{}, err
	}
	return b, nil
}

// SiteInfo is what a site reports about itself in its MsgPing reply: the
// size of its store and of its dictionaries. A coordinator compares it
// with its own layout (Verify) so a seed, k or strategy that differs from
// the one the snapshots were exported with fails at connect time.
type SiteInfo struct {
	Triples    int
	Vertices   int
	Properties int
}

// appendSiteInfo appends the wire encoding of a ping reply: three uvarints.
func appendSiteInfo(buf []byte, si SiteInfo) []byte {
	buf = binary.AppendUvarint(buf, uint64(si.Triples))
	buf = binary.AppendUvarint(buf, uint64(si.Vertices))
	return binary.AppendUvarint(buf, uint64(si.Properties))
}

// decodeSiteInfo decodes a ping reply.
func decodeSiteInfo(data []byte) (SiteInfo, error) {
	var si SiteInfo
	if err := uvarints(data, "site info", &si.Triples, &si.Vertices, &si.Properties); err != nil {
		return SiteInfo{}, err
	}
	return si, nil
}

// Error payload codec (MsgError): uvarint code + message string.

// appendErrorPayload encodes a remote error.
func appendErrorPayload(buf []byte, code uint64, msg string) []byte {
	buf = binary.AppendUvarint(buf, code)
	return appendString(buf, msg)
}

// decodeErrorPayload decodes a MsgError payload.
func decodeErrorPayload(data []byte) (*RemoteError, error) {
	code, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("transport: error codec: truncated code")
	}
	msgLen, m := binary.Uvarint(data[n:])
	// Compare in uint64: a length above MaxInt would turn negative as an
	// int and pass a bounds check written in ints.
	if m <= 0 || msgLen > uint64(len(data)-n-m) {
		return nil, fmt.Errorf("transport: error codec: truncated message")
	}
	return &RemoteError{Code: ErrorCode(code), Message: string(data[n+m : n+m+int(msgLen)])}, nil
}
