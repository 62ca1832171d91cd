package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/rdf"
	"mpc/internal/sparql"
	"mpc/internal/store"
)

// The wire decoders read bytes straight off the network — the site side
// decodes requests, the coordinator side decodes replies — so each gets a
// fuzz target asserting three things on any input: no panic, an allocation
// bounded by the input length (a count or a length prefix may not size an
// allocation the bytes behind it cannot fill), and, for inputs that
// decode, a stable round trip: encoding the decoded value and decoding it
// again gives the same value. Seed corpora live under testdata/fuzz.

// decodeAllocSlack is the fixed allocation a decoder may make on any input
// (error values, small headers) beyond decodeAllocPerByte per input byte.
const (
	decodeAllocSlack   = 16 << 10
	decodeAllocPerByte = 256
)

// allocated runs f and returns the bytes it allocated on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecodeAlloc fails when decoding data allocated more than the
// per-byte budget allows.
func checkDecodeAlloc(t *testing.T, data []byte, got uint64) {
	t.Helper()
	if limit := uint64(decodeAllocPerByte*len(data) + decodeAllocSlack); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
	}
}

func FuzzDecodeQueryBatch(f *testing.F) {
	filter, err := sparql.ParseExpr(`?o != <b> && bound(?p)`)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(AppendQueryBatch(nil, []*sparql.Query{
		sparql.MustParse(`SELECT ?x WHERE { ?x <p> ?y . ?y <q> "lit" }`),
		{Patterns: []sparql.TriplePattern{{S: sparql.Const("a"), P: sparql.Var("p"), O: sparql.Var("o")}},
			Filters: []sparql.Expr{filter}},
	}))
	f.Add(AppendQueryBatch(nil, nil))
	f.Add([]byte{0xff, 0xff, 0x03}) // a count far above the bytes that follow
	f.Fuzz(func(t *testing.T, data []byte) {
		var subs []*sparql.Query
		var err error
		checkDecodeAlloc(t, data, allocated(func() { subs, err = DecodeQueryBatch(data) }))
		if err != nil {
			return
		}
		enc := AppendQueryBatch(nil, subs)
		again, err := DecodeQueryBatch(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if len(again) != len(subs) {
			t.Fatalf("round trip: %d queries, want %d", len(again), len(subs))
		}
		for i := range subs {
			if a, b := again[i].String(), subs[i].String(); a != b {
				t.Fatalf("round trip of query %d:\n%s\nwant\n%s", i, a, b)
			}
		}
		if re := AppendQueryBatch(nil, again); !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not stable across a round trip")
		}
	})
}

func FuzzDecodeUpdateBatch(f *testing.F) {
	f.Add(AppendUpdateBatch(nil, cluster.UpdateBatch{
		Seq:   7,
		Delta: rdf.DictDelta{BaseVertices: 10, NewVertices: []string{"v10", "v11"}, BaseProperties: 3, NewProperties: []string{"p3"}},
		Ops: []rdf.ResolvedUpdate{
			{Insert: true, T: rdf.Triple{S: 10, P: 3, O: 11}},
			{T: rdf.Triple{S: 1, P: 0, O: 2}},
		},
	}))
	f.Add(AppendUpdateBatch(nil, cluster.UpdateBatch{Seq: 1}))
	f.Add([]byte{1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x07}) // 16M ops in no bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		var b cluster.UpdateBatch
		var err error
		checkDecodeAlloc(t, data, allocated(func() { b, err = DecodeUpdateBatch(data) }))
		if err != nil {
			return
		}
		again, err := DecodeUpdateBatch(AppendUpdateBatch(nil, b))
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("round trip: %+v, want %+v", again, b)
		}
	})
}

func FuzzDecodeMigrateBatch(f *testing.F) {
	f.Add(AppendMigrateBatch(nil, cluster.MigrateBatch{
		Seq: 3,
		Ops: []rdf.ResolvedUpdate{{Insert: true, T: rdf.Triple{S: 4, P: 1, O: 9}}, {T: rdf.Triple{S: 4, P: 1, O: 9}}},
	}))
	f.Add(AppendMigrateBatch(nil, cluster.MigrateBatch{}))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b cluster.MigrateBatch
		var err error
		checkDecodeAlloc(t, data, allocated(func() { b, err = DecodeMigrateBatch(data) }))
		if err != nil {
			return
		}
		again, err := DecodeMigrateBatch(AppendMigrateBatch(nil, b))
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("round trip: %+v, want %+v", again, b)
		}
	})
}

func FuzzDecodeTableBatch(f *testing.F) {
	two := store.NewTable([]string{"s", "p"}, []store.VarKind{store.KindVertex, store.KindProperty})
	two.AppendRow(3, 1)
	two.AppendRow(7, 0)
	zero := store.NewTable(nil, nil)
	zero.ZeroWidthRows = 2
	f.Add(AppendTableBatch(nil, []*store.Table{two, zero, store.NewTable([]string{"x"}, []store.VarKind{store.KindVertex})}))
	f.Add(AppendTableBatch(nil, nil))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0x07}) // a table length far above the bytes that follow
	f.Fuzz(func(t *testing.T, data []byte) {
		var tabs []*store.Table
		var err error
		checkDecodeAlloc(t, data, allocated(func() { tabs, err = DecodeTableBatch(data) }))
		if err != nil {
			return
		}
		enc := AppendTableBatch(nil, tabs)
		again, err := DecodeTableBatch(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if len(again) != len(tabs) {
			t.Fatalf("round trip: %d tables, want %d", len(again), len(tabs))
		}
		for i := range tabs {
			a, b := again[i], tabs[i]
			if !slices.Equal(a.Vars, b.Vars) || !slices.Equal(a.Kinds, b.Kinds) || a.Len() != b.Len() || !slices.Equal(a.Data, b.Data) {
				t.Fatalf("round trip of table %d: %v %v %d rows, want %v %v %d rows", i, a.Vars, a.Kinds, a.Len(), b.Vars, b.Kinds, b.Len())
			}
		}
		if re := AppendTableBatch(nil, again); !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not stable across a round trip")
		}
	})
}

func FuzzDecodeSiteInfo(f *testing.F) {
	f.Add(appendSiteInfo(nil, SiteInfo{Triples: 1200, Vertices: 310, Properties: 12}))
	f.Add(appendSiteInfo(nil, SiteInfo{}))
	f.Add([]byte{0x80, 0x80}) // a truncated uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		var si SiteInfo
		var err error
		checkDecodeAlloc(t, data, allocated(func() { si, err = decodeSiteInfo(data) }))
		if err != nil {
			return
		}
		again, err := decodeSiteInfo(appendSiteInfo(nil, si))
		if err != nil {
			t.Fatalf("re-decoding an encoded ping reply: %v", err)
		}
		if again != si {
			t.Fatalf("round trip: %+v, want %+v", again, si)
		}
	})
}

func FuzzDecodeErrorPayload(f *testing.F) {
	f.Add(appendErrorPayload(nil, uint64(CodeBadRequest), "transport: bad query"))
	f.Add(appendErrorPayload(nil, 0, ""))
	// A message length whose int conversion is negative.
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var re *RemoteError
		var err error
		checkDecodeAlloc(t, data, allocated(func() { re, err = decodeErrorPayload(data) }))
		if err != nil {
			return
		}
		again, err := decodeErrorPayload(appendErrorPayload(nil, uint64(re.Code), re.Message))
		if err != nil {
			t.Fatalf("re-decoding an encoded error: %v", err)
		}
		if *again != *re {
			t.Fatalf("round trip: %+v, want %+v", again, re)
		}
	})
}

// frameBytes encodes one frame as writeFrame sends it.
func frameBytes(typ byte, reqID uint64, payload []byte) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, typ, reqID, payload)
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(MsgQueryBatch, 42, AppendQueryBatch(nil, []*sparql.Query{
		sparql.MustParse(`SELECT * WHERE { ?s <p> ?o }`)})))
	f.Add(frameBytes(MsgPing, 1, nil))
	// A header claiming the largest legal body, followed by four bytes.
	huge := frameBytes(MsgUpdate, 9, nil)
	binary.LittleEndian.PutUint32(huge, MaxFrameBytes)
	f.Add(append(huge, 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		var n int
		var err error
		got := allocated(func() { fr, n, err = readFrame(bytes.NewReader(data)) })
		// The body may be allocated up front to the claimed length, but
		// never past eagerFrameBytes before its bytes have arrived.
		claimed := 0
		if len(data) >= 4 {
			claimed = min(int(binary.LittleEndian.Uint32(data)), eagerFrameBytes)
		}
		if limit := uint64(claimed + 4*len(data) + decodeAllocSlack); got > limit {
			t.Fatalf("reading %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("read %d bytes of a %d-byte input", n, len(data))
		}
		enc := frameBytes(fr.typ, fr.reqID, fr.payload)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encoded frame differs from the bytes read")
		}
		again, m, err := readFrame(bytes.NewReader(enc))
		if err != nil || m != n || again.typ != fr.typ || again.reqID != fr.reqID || !bytes.Equal(again.payload, fr.payload) {
			t.Fatalf("round trip: %+v (%d bytes, %v), want %+v (%d bytes)", again, m, err, fr, n)
		}
	})
}
