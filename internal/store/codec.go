package store

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for binding tables, used by internal/transport to ship
// subquery results between sites and the coordinator. The encoding mirrors
// the in-memory layout: a small schema header followed by the flat
// row-major Data array as raw little-endian uint32s, so encode and decode
// are each a single bulk conversion pass over one allocation — no per-row
// or per-value framing.
//
// Layout (uvarint = unsigned LEB128 varint):
//
//	uvarint ncols
//	ncols × { uvarint len(name) | name bytes | kind byte }
//	uvarint ZeroWidthRows
//	uvarint len(Data)            (must be a multiple of ncols)
//	len(Data) × uint32 LE        (row-major, stride ncols)
//
// The codec is self-delimiting: DecodeTable reports how many bytes it
// consumed, so tables can be embedded in larger frames.

// Codec sanity bounds: a decoded table may not claim more columns or cells
// than this, so a corrupt or hostile length prefix cannot drive a huge
// allocation before the (bounded) input runs out.
const (
	maxCodecCols  = 1 << 16
	maxCodecCells = 1 << 28 // 2^28 uint32 cells = 1 GiB of bindings
	maxCodecName  = 1 << 12 // variable-name length bound
)

// AppendTable appends the wire encoding of t to buf and returns the
// extended slice. A nil table encodes like an empty zero-column table.
func AppendTable(buf []byte, t *Table) []byte {
	if t == nil {
		t = &Table{}
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Vars)))
	for i, v := range t.Vars {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
		buf = append(buf, byte(t.Kinds[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(t.ZeroWidthRows))
	buf = binary.AppendUvarint(buf, uint64(len(t.Data)))
	// Bulk-convert the flat storage; grow once, then write in place.
	off := len(buf)
	buf = append(buf, make([]byte, 4*len(t.Data))...)
	for _, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[off:], v)
		off += 4
	}
	return buf
}

// EncodedTableSize returns the exact encoded size of t, for preallocating
// frame buffers.
func EncodedTableSize(t *Table) int {
	if t == nil {
		t = &Table{}
	}
	n := uvarintLen(uint64(len(t.Vars)))
	for _, v := range t.Vars {
		n += uvarintLen(uint64(len(v))) + len(v) + 1
	}
	n += uvarintLen(uint64(t.ZeroWidthRows))
	n += uvarintLen(uint64(len(t.Data)))
	return n + 4*len(t.Data)
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeTable decodes one table from the front of data, returning the
// table and the number of bytes consumed. Truncated or corrupt input
// returns an error; the function never panics on hostile bytes.
func DecodeTable(data []byte) (*Table, int, error) {
	pos := 0
	readUvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("store: table codec: truncated %s at byte %d", what, pos)
		}
		pos += n
		return v, nil
	}
	ncols, err := readUvarint("column count")
	if err != nil {
		return nil, 0, err
	}
	if ncols > maxCodecCols {
		return nil, 0, fmt.Errorf("store: table codec: %d columns exceeds limit %d", ncols, maxCodecCols)
	}
	// Every column takes at least two bytes (name length, kind): a count
	// the bytes behind it cannot fill must not size the schema below.
	if ncols > uint64(len(data)-pos)/2 {
		return nil, 0, fmt.Errorf("store: table codec: %d columns in %d bytes", ncols, len(data)-pos)
	}
	t := &Table{}
	if ncols > 0 {
		t.Vars = make([]string, ncols)
		t.Kinds = make([]VarKind, ncols)
	}
	for i := 0; i < int(ncols); i++ {
		nameLen, err := readUvarint("name length")
		if err != nil {
			return nil, 0, err
		}
		if nameLen > maxCodecName {
			return nil, 0, fmt.Errorf("store: table codec: variable name of %d bytes exceeds limit %d", nameLen, maxCodecName)
		}
		if pos+int(nameLen)+1 > len(data) {
			return nil, 0, fmt.Errorf("store: table codec: truncated column %d at byte %d", i, pos)
		}
		t.Vars[i] = string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		kind := data[pos]
		pos++
		if kind > byte(KindProperty) {
			return nil, 0, fmt.Errorf("store: table codec: column %d has unknown kind %d", i, kind)
		}
		t.Kinds[i] = VarKind(kind)
	}
	zeroRows, err := readUvarint("zero-width row count")
	if err != nil {
		return nil, 0, err
	}
	if zeroRows > maxCodecCells {
		return nil, 0, fmt.Errorf("store: table codec: %d zero-width rows exceeds limit %d", zeroRows, maxCodecCells)
	}
	t.ZeroWidthRows = int(zeroRows)
	cells, err := readUvarint("data length")
	if err != nil {
		return nil, 0, err
	}
	if cells > maxCodecCells {
		return nil, 0, fmt.Errorf("store: table codec: %d cells exceeds limit %d", cells, maxCodecCells)
	}
	if ncols == 0 {
		if cells != 0 {
			return nil, 0, fmt.Errorf("store: table codec: zero-column table carries %d cells", cells)
		}
	} else if cells%ncols != 0 {
		return nil, 0, fmt.Errorf("store: table codec: %d cells not a multiple of %d columns", cells, ncols)
	}
	if pos+4*int(cells) > len(data) {
		return nil, 0, fmt.Errorf("store: table codec: truncated data: need %d bytes, have %d", 4*cells, len(data)-pos)
	}
	if cells > 0 {
		t.Data = make([]uint32, cells)
		for i := range t.Data {
			t.Data[i] = binary.LittleEndian.Uint32(data[pos:])
			pos += 4
		}
	}
	t.BuildColIndex()
	return t, pos, nil
}
