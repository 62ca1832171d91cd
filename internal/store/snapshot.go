package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"mpc/internal/mmapio"
	"mpc/internal/rdf"
)

// Snapshot v3: a block-compressed site store on disk, openable via mmap.
//
// Versions 1 and 2 (internal/rdf/snapshot.go) serialize a whole graph and
// force the loader to rebuild the three index permutations in the heap.
// Version 3 instead persists the store's physical layout — the term
// dictionaries followed by the three permutations as sequences of
// delta-varint block frames — so OpenSnapshot maps the file, scans only
// the frame headers to rebuild the in-heap directory, and leaves every
// payload byte in the page cache until a query decodes its block.
//
// Layout (uvarint = unsigned LEB128):
//
//	magic "MPCG" | uvarint 3
//	uvarint |V| | |V| × { uvarint len | bytes }        vertex dictionary
//	uvarint |P| | |P| × { uvarint len | bytes }        property dictionary
//	uvarint numTriples
//	3 × section (SPO, POS, OPS order):
//	    uvarint numBlocks
//	    numBlocks × { uvarint n | uvarint byteLen |
//	                  min key (3 × uvarint) | max key (3 × uvarint) |
//	                  payload (byteLen bytes) }
//
// The writer streams: one pass over the (per-site) sorted permutations,
// no buffering of more than one block. The dictionaries are the full
// shared dictionaries of the source graph — exactly like v1/v2 site
// snapshots — so IDs in shipped binding tables stay comparable across
// sites.

// BlockSnapshotVersion is the version byte of block snapshots; versions 1
// and 2 belong to internal/rdf. Loaders dispatch on SnapshotVersion to
// pick the right reader.
const BlockSnapshotVersion = 3

const snapshotMagic = "MPCG"

// maxSnapshotString mirrors the rdf snapshot reader's bound.
const maxSnapshotString = 1 << 24

// WriteBlockSnapshot writes a v3 block snapshot of the given triple
// indices of g (the site's slice of the graph, as produced by a
// partition.SiteLayout). It materializes and sorts only this one site's
// triples, so exporting k sites peaks at one site's working set.
func WriteBlockSnapshot(w io.Writer, g *rdf.Graph, tripleIdx []int32) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeUvarint(BlockSnapshotVersion); err != nil {
		return err
	}
	writeDict := func(d *rdf.Dict) error {
		n := d.Len()
		if err := writeUvarint(uint64(n)); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			s := d.String(uint32(i))
			if err := writeUvarint(uint64(len(s))); err != nil {
				return err
			}
			if _, err := bw.WriteString(s); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeDict(g.Vertices); err != nil {
		return err
	}
	if err := writeDict(g.Properties); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(tripleIdx))); err != nil {
		return err
	}

	triples := siteTriples(g, tripleIdx)
	buf := make([]rdf.Triple, len(triples))
	numBlocks := (len(triples) + defaultBlockLen - 1) / defaultBlockLen
	for perm := permID(0); perm < numPerms; perm++ {
		if err := writeUvarint(uint64(numBlocks)); err != nil {
			return err
		}
		err := encodePerm(triples, buf, perm, defaultBlockLen, func(n int, payload []byte, min, max [3]uint32) error {
			for _, v := range [...]uint32{uint32(n), uint32(len(payload)), min[0], min[1], min[2], max[0], max[1], max[2]} {
				if err := writeUvarint(uint64(v)); err != nil {
					return err
				}
			}
			_, err := bw.Write(payload)
			return err
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveBlockSnapshot writes a v3 snapshot to path. Like dataio.SaveFile,
// the write is durable before a nil return — Sync and Close failures are
// reported — and a torn file is unlinked on error.
func SaveBlockSnapshot(path string, g *rdf.Graph, tripleIdx []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteBlockSnapshot(f, g, tripleIdx)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// SnapshotVersion reads just enough of a .mpcg file to report its version.
func SnapshotVersion(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("store: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return 0, fmt.Errorf("store: bad snapshot magic %q", magic)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("store: snapshot version: %w", err)
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("store: absurd snapshot version %d", v)
	}
	return int(v), nil
}

// OpenSnapshot maps a v3 block snapshot and returns a store over it. The
// heap holds the dictionary offset/probe tables, the block directory and
// the decoded-block cache; the block payloads and the dictionary strings
// stay in the mapped file. The returned store's graph
// carries only the dictionaries (no triples, not frozen) — enough for the
// matcher and for coordinator-compatible IDs. Close the store to release
// the mapping.
//
// The whole file is validated on open (structure strictly, every block
// payload by a streaming decode), so hostile or truncated input returns
// an error here and block decodes afterwards cannot fail.
func OpenSnapshot(path string) (*Store, error) {
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := openSnapshotBytes(m.Data)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	st.closer = m
	return st, nil
}

// ReadSnapshotGraph reconstructs a frozen in-heap graph from a v3 block
// snapshot — the compatibility path for tools that want a *rdf.Graph
// rather than a mapped store. The triples come back in SPO order, which
// loses the source file's insertion order but preserves the multiset (and
// therefore every query answer and digest).
func ReadSnapshotGraph(path string) (*rdf.Graph, error) {
	st, err := OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	// The mapped store's dictionaries alias the file, which Close unmaps —
	// copy them into heap dictionaries the returned graph can own.
	g := rdf.NewGraph()
	for i, n := uint32(0), uint32(st.g.Vertices.Len()); i < n; i++ {
		if id := g.Vertices.Intern(st.g.Vertices.String(i)); id != i {
			return nil, fmt.Errorf("store: snapshot %s: duplicate vertex at ID %d", path, i)
		}
	}
	for i, n := uint32(0), uint32(st.g.Properties.Len()); i < n; i++ {
		if id := g.Properties.Intern(st.g.Properties.String(i)); id != i {
			return nil, fmt.Errorf("store: snapshot %s: duplicate property at ID %d", path, i)
		}
	}
	st.idx.candidates(-1, -1, -1, func(t rdf.Triple) bool {
		g.AddTripleIDs(t.S, t.P, t.O)
		return true
	})
	g.Freeze()
	return g, nil
}

// openSnapshotBytes parses and validates a v3 snapshot held in data. The
// returned store's block payloads alias data.
func openSnapshotBytes(data []byte) (*Store, error) {
	pos := 0
	readUvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("truncated %s at byte %d", what, pos)
		}
		pos += n
		return v, nil
	}
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("bad snapshot magic")
	}
	pos = len(snapshotMagic)
	version, err := readUvarint("version")
	if err != nil {
		return nil, err
	}
	if version != BlockSnapshotVersion {
		return nil, fmt.Errorf("unsupported block snapshot version %d", version)
	}
	// The dictionaries stay in the mapped file: scanning records only the
	// offset of each term's length prefix, and NewMappedDict builds a probe
	// table over those offsets (rejecting duplicates). Term strings never
	// reach the heap unless a caller renders them.
	g := rdf.NewGraph()
	readDict := func(what string) (*rdf.Dict, error) {
		n, err := readUvarint(what + " count")
		if err != nil {
			return nil, err
		}
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("absurd %s count %d", what, n)
		}
		offs := make([]uint32, 0, n)
		for i := uint64(0); i < n; i++ {
			if pos > math.MaxUint32 {
				return nil, fmt.Errorf("%s dictionary extends beyond 4 GiB", what)
			}
			start := uint32(pos)
			sl, err := readUvarint(what + " string length")
			if err != nil {
				return nil, err
			}
			if sl > maxSnapshotString {
				return nil, fmt.Errorf("%s string of %d bytes too large", what, sl)
			}
			if pos+int(sl) > len(data) {
				return nil, fmt.Errorf("truncated %s string at byte %d", what, pos)
			}
			pos += int(sl)
			offs = append(offs, start)
		}
		d, err := rdf.NewMappedDict(data, offs)
		if err != nil {
			return nil, fmt.Errorf("%s dictionary: %w", what, err)
		}
		return d, nil
	}
	if g.Vertices, err = readDict("vertex"); err != nil {
		return nil, err
	}
	if g.Properties, err = readDict("property"); err != nil {
		return nil, err
	}
	nT, err := readUvarint("triple count")
	if err != nil {
		return nil, err
	}
	if nT > math.MaxInt32 {
		return nil, fmt.Errorf("absurd triple count %d", nT)
	}
	nV, nP := uint32(g.Vertices.Len()), uint32(g.Properties.Len())

	bx := &blockIndex{
		baseN: int(nT),
		cache: newBlockCache(defaultCacheBlocks),
	}
	bx.ov = newOverlay()
	var decodeBuf []rdf.Triple
	var prevSPO rdf.Triple
	havePrevSPO := false
	for perm := permID(0); perm < numPerms; perm++ {
		nBlocks, err := readUvarint("block count")
		if err != nil {
			return nil, err
		}
		if nBlocks > nT+1 {
			return nil, fmt.Errorf("%s section claims %d blocks for %d triples", permNames[perm], nBlocks, nT)
		}
		bp := &bx.perms[perm]
		bp.blob = data
		total := uint64(0)
		for b := uint64(0); b < nBlocks; b++ {
			var m blockMeta
			n, err := readUvarint("block triple count")
			if err != nil {
				return nil, err
			}
			if n == 0 || n > maxBlockTriples {
				return nil, fmt.Errorf("%s block %d holds %d triples (want 1..%d)", permNames[perm], b, n, maxBlockTriples)
			}
			blen, err := readUvarint("block byte length")
			if err != nil {
				return nil, err
			}
			for j := 0; j < 3; j++ {
				v, err := readUvarint("block min key")
				if err != nil {
					return nil, err
				}
				if v > math.MaxUint32 {
					return nil, fmt.Errorf("block min key component %d overflows uint32", v)
				}
				m.min[j] = uint32(v)
			}
			for j := 0; j < 3; j++ {
				v, err := readUvarint("block max key")
				if err != nil {
					return nil, err
				}
				if v > math.MaxUint32 {
					return nil, fmt.Errorf("block max key component %d overflows uint32", v)
				}
				m.max[j] = uint32(v)
			}
			if blen > uint64(len(data)-pos) {
				return nil, fmt.Errorf("%s block %d payload of %d bytes exceeds remaining file", permNames[perm], b, blen)
			}
			m.off, m.blen, m.n = int64(pos), int32(blen), int32(n)
			pos += int(blen)
			total += n

			// Validate the payload now so later decodes cannot fail, and
			// cross-check the directory entry against the decoded run.
			decodeBuf, err = decodeBlock(bp.blob[m.off:m.off+int64(m.blen)], int(m.n), perm, decodeBuf[:0])
			if err != nil {
				return nil, fmt.Errorf("%s block %d: %w", permNames[perm], b, err)
			}
			first, last := keyOf(perm, decodeBuf[0]), keyOf(perm, decodeBuf[len(decodeBuf)-1])
			if first != m.min || last != m.max {
				return nil, fmt.Errorf("%s block %d directory keys disagree with payload", permNames[perm], b)
			}
			if len(bp.metas) > 0 && keyCmp(m.min, bp.metas[len(bp.metas)-1].max) < 0 {
				return nil, fmt.Errorf("%s block %d overlaps its predecessor", permNames[perm], b)
			}
			for _, t := range decodeBuf {
				if uint32(t.S) >= nV || uint32(t.O) >= nV || uint32(t.P) >= nP {
					return nil, fmt.Errorf("%s block %d references out-of-range term", permNames[perm], b)
				}
				if perm == permSPO {
					if havePrevSPO && t == prevSPO {
						bx.dups++
					}
					prevSPO, havePrevSPO = t, true
				}
			}
			bp.metas = append(bp.metas, m)
		}
		if total != nT {
			return nil, fmt.Errorf("%s section holds %d triples, header claims %d", permNames[perm], total, nT)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after snapshot", len(data)-pos)
	}
	return &Store{g: g, idx: bx}, nil
}
