package store

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"mpc/internal/rdf"
)

// Compressed block index: the scale-oriented tripleIndex implementation.
//
// Each of the three permutations (SPO, POS, OPS) is split into fixed-size
// sorted runs of triples ("blocks"). A block's payload is the delta-varint
// encoding of its permuted keys: the first key is written in full, every
// later key as the delta of its leading component — when that delta is
// zero the next component's delta follows, and so on (trailing components
// reset to absolute values whenever an earlier component changed). Since
// the run is sorted the deltas are non-negative, so plain unsigned varints
// suffice and decoding can never produce an out-of-order run.
//
// A small in-heap directory holds each block's min/max key plus payload
// offset, so prefix seeks binary-search the directory and decode only the
// blocks whose key range intersects the query — the full permutation is
// never materialized. Decoded blocks live in a shared LRU cache sized in
// blocks; matcher iterations hold direct references to the decoded slices,
// so eviction during a nested iteration is safe (the GC keeps the slice
// alive until the iterator drops it).
//
// Mutability: the base blocks are immutable. Live updates go to an overlay
// — inserted triples in a miniature flat index, deleted base occurrences
// in a multiset — and every read path merges base and overlay in key
// order. Equal triples are adjacent in every permutation, so the deletion
// skip needs only a per-run counter, not positional bookkeeping.

// permID selects one of the three index permutations.
type permID int

const (
	permSPO permID = iota
	permPOS
	permOPS
	numPerms
)

var permNames = [numPerms]string{"SPO", "POS", "OPS"}

// defaultBlockLen is the number of triples per block: large enough that
// the directory stays tiny (≈0.4% of the triple count), small enough that
// a point lookup decodes little.
const defaultBlockLen = 1024

// maxBlockTriples bounds a decoded block so a hostile snapshot header
// cannot drive a huge allocation.
const maxBlockTriples = 1 << 16

// keyOf permutes t into the key tuple of the given permutation.
func keyOf(perm permID, t rdf.Triple) [3]uint32 {
	switch perm {
	case permSPO:
		return [3]uint32{uint32(t.S), uint32(t.P), uint32(t.O)}
	case permPOS:
		return [3]uint32{uint32(t.P), uint32(t.O), uint32(t.S)}
	default: // permOPS
		return [3]uint32{uint32(t.O), uint32(t.P), uint32(t.S)}
	}
}

// tripleOfKey inverts keyOf.
func tripleOfKey(perm permID, k [3]uint32) rdf.Triple {
	switch perm {
	case permSPO:
		return rdf.Triple{S: rdf.VertexID(k[0]), P: rdf.PropertyID(k[1]), O: rdf.VertexID(k[2])}
	case permPOS:
		return rdf.Triple{P: rdf.PropertyID(k[0]), O: rdf.VertexID(k[1]), S: rdf.VertexID(k[2])}
	default: // permOPS
		return rdf.Triple{O: rdf.VertexID(k[0]), P: rdf.PropertyID(k[1]), S: rdf.VertexID(k[2])}
	}
}

// keyCmp lexicographically compares two permuted keys.
func keyCmp(a, b [3]uint32) int {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// appendBlock appends the delta-varint payload of chunk (which must be
// sorted in perm order) to buf, returning the extended buffer and the
// chunk's min and max keys.
func appendBlock(buf []byte, perm permID, chunk []rdf.Triple) (out []byte, min, max [3]uint32) {
	var prev [3]uint32
	for i, t := range chunk {
		k := keyOf(perm, t)
		if i == 0 {
			min = k
			buf = binary.AppendUvarint(buf, uint64(k[0]))
			buf = binary.AppendUvarint(buf, uint64(k[1]))
			buf = binary.AppendUvarint(buf, uint64(k[2]))
		} else {
			da := k[0] - prev[0]
			buf = binary.AppendUvarint(buf, uint64(da))
			if da != 0 {
				buf = binary.AppendUvarint(buf, uint64(k[1]))
				buf = binary.AppendUvarint(buf, uint64(k[2]))
			} else {
				db := k[1] - prev[1]
				buf = binary.AppendUvarint(buf, uint64(db))
				if db != 0 {
					buf = binary.AppendUvarint(buf, uint64(k[2]))
				} else {
					buf = binary.AppendUvarint(buf, uint64(k[2]-prev[2]))
				}
			}
		}
		prev = k
	}
	max = prev
	return buf, min, max
}

// decodeBlock decodes a block payload of n keys into triples, appending to
// dst (pass nil to allocate). It never panics on hostile bytes: truncated
// varints, component overflow past uint32, or trailing garbage all return
// an error. By construction every decodable payload yields a key sequence
// sorted in perm order.
func decodeBlock(payload []byte, n int, perm permID, dst []rdf.Triple) ([]rdf.Triple, error) {
	if n < 0 || n > maxBlockTriples {
		return nil, fmt.Errorf("store: block codec: %d triples exceeds limit %d", n, maxBlockTriples)
	}
	pos := 0
	readUvarint := func() (uint64, error) {
		v, sz := binary.Uvarint(payload[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("store: block codec: truncated varint at byte %d", pos)
		}
		pos += sz
		return v, nil
	}
	var prev [3]uint32
	for i := 0; i < n; i++ {
		var k [3]uint32
		if i == 0 {
			for j := 0; j < 3; j++ {
				v, err := readUvarint()
				if err != nil {
					return nil, err
				}
				if v > math.MaxUint32 {
					return nil, fmt.Errorf("store: block codec: key component %d overflows uint32", v)
				}
				k[j] = uint32(v)
			}
		} else {
			da, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if da > math.MaxUint32-uint64(prev[0]) {
				return nil, fmt.Errorf("store: block codec: leading delta %d overflows uint32", da)
			}
			k[0] = prev[0] + uint32(da)
			if da != 0 {
				for j := 1; j < 3; j++ {
					v, err := readUvarint()
					if err != nil {
						return nil, err
					}
					if v > math.MaxUint32 {
						return nil, fmt.Errorf("store: block codec: key component %d overflows uint32", v)
					}
					k[j] = uint32(v)
				}
			} else {
				db, err := readUvarint()
				if err != nil {
					return nil, err
				}
				if db > math.MaxUint32-uint64(prev[1]) {
					return nil, fmt.Errorf("store: block codec: middle delta %d overflows uint32", db)
				}
				k[1] = prev[1] + uint32(db)
				if db != 0 {
					v, err := readUvarint()
					if err != nil {
						return nil, err
					}
					if v > math.MaxUint32 {
						return nil, fmt.Errorf("store: block codec: key component %d overflows uint32", v)
					}
					k[2] = uint32(v)
				} else {
					dc, err := readUvarint()
					if err != nil {
						return nil, err
					}
					if dc > math.MaxUint32-uint64(prev[2]) {
						return nil, fmt.Errorf("store: block codec: trailing delta %d overflows uint32", dc)
					}
					k[2] = prev[2] + uint32(dc)
				}
			}
		}
		prev = k
		dst = append(dst, tripleOfKey(perm, k))
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("store: block codec: %d trailing bytes after %d keys", len(payload)-pos, n)
	}
	return dst, nil
}

// blockMeta is one directory entry: the block's key range, its payload
// location in the permutation's blob, and its triple count.
type blockMeta struct {
	min, max [3]uint32
	off      int64
	blen     int32
	n        int32
}

// blockPerm is one permutation's compressed index: the concatenated block
// payloads (heap-built or a sub-slice of a memory-mapped snapshot) plus
// the directory.
type blockPerm struct {
	blob  []byte
	metas []blockMeta
}

// payload returns block bi's raw payload bytes.
func (bp *blockPerm) payload(bi int) []byte {
	m := &bp.metas[bi]
	return bp.blob[m.off : m.off+int64(m.blen)]
}

// blockRef names one block for the cache.
type blockRef struct {
	perm permID
	bi   int
}

// blockCache is a small LRU of decoded blocks. It has its own mutex:
// Match holds only the store's read lock, so concurrent matches hit the
// cache concurrently. Decoding happens outside the lock; a racing double
// decode of the same block is benign.
type blockCache struct {
	mu  sync.Mutex
	cap int
	m   map[blockRef]*list.Element
	ll  *list.List
}

type cacheEntry struct {
	ref blockRef
	tr  []rdf.Triple
}

// defaultCacheBlocks bounds the decoded working set: 512 blocks of 1024
// triples ≈ 6 MB per store.
const defaultCacheBlocks = 512

func newBlockCache(capacity int) *blockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &blockCache{cap: capacity, m: make(map[blockRef]*list.Element), ll: list.New()}
}

func (c *blockCache) get(ref blockRef) ([]rdf.Triple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[ref]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*cacheEntry).tr, true
	}
	return nil, false
}

func (c *blockCache) put(ref blockRef, tr []rdf.Triple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[ref]; ok { // racing decode: keep the resident copy
		c.ll.MoveToFront(e)
		return
	}
	c.m[ref] = c.ll.PushFront(&cacheEntry{ref: ref, tr: tr})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		delete(c.m, back.Value.(*cacheEntry).ref)
		c.ll.Remove(back)
	}
}

// overlay holds the live mutations layered over the immutable base blocks.
type overlay struct {
	// ins indexes the inserted triples — a miniature flat index, so the
	// merge reads them in any permutation order.
	ins *flatIndex
	// del counts deleted base occurrences per triple; delProp aggregates
	// them per property (for selectivity estimates), delTotal overall.
	del      map[rdf.Triple]int
	delProp  map[rdf.PropertyID]int
	delTotal int
}

// blockIndex implements tripleIndex over compressed blocks plus an
// overlay. Results are bit-identical to flatIndex over the same multiset:
// every read path enumerates triples in the same permutation value order.
type blockIndex struct {
	perms [numPerms]blockPerm
	baseN int
	cache *blockCache
	ov    overlay
	// dups is the live number of adjacent equal SPO pairs, maintained
	// across overlay mutations exactly like flatIndex maintains its count.
	dups int
}

// sortPerm sorts triples in place into perm's key order: an LSD radix sort
// over the key's twelve bytes, least significant first, scattering through
// buf (len(buf) == len(triples)). One counting pass builds every byte's
// histogram; a byte on which all triples agree costs no pass, so small IDs
// sort in a few passes.
func sortPerm(triples, buf []rdf.Triple, perm permID) {
	if len(triples) < 2 {
		return
	}
	// Digit d is byte d%4 of key component 2-d/4.
	var counts [12][256]int
	for _, t := range triples {
		k := keyOf(perm, t)
		for d := range counts {
			counts[d][byte(k[2-d/4]>>(8*(d%4)))]++
		}
	}
	first := keyOf(perm, triples[0])
	src, dst := triples, buf
	for d := range counts {
		comp, shift := 2-d/4, 8*(d%4)
		c := &counts[d]
		if c[byte(first[comp]>>shift)] == len(triples) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, t := range src {
			b := byte(keyOf(perm, t)[comp] >> shift)
			dst[c[b]] = t
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &triples[0] {
		copy(triples, src)
	}
}

// encodePerm sorts triples in place into perm's key order (buf is sortPerm's
// scratch) and encodes each consecutive run of blockLen of them as one
// block, passing emit the run's length, its delta-varint payload (reused
// once emit returns) and its min/max keys. It is the one block encoder
// behind NewBlock, Compact and WriteBlockSnapshot: the triples are sorted
// by value, so each run is already contiguous.
func encodePerm(triples, buf []rdf.Triple, perm permID, blockLen int, emit func(n int, payload []byte, min, max [3]uint32) error) error {
	sortPerm(triples, buf, perm)
	var payload []byte
	for lo := 0; lo < len(triples); lo += blockLen {
		hi := min(lo+blockLen, len(triples))
		var kmin, kmax [3]uint32
		payload, kmin, kmax = appendBlock(payload[:0], perm, triples[lo:hi])
		if err := emit(hi-lo, payload, kmin, kmax); err != nil {
			return err
		}
	}
	return nil
}

// newBlockIndex compresses triples, which it reorders, into blocks.
func newBlockIndex(triples []rdf.Triple, blockLen int) *blockIndex {
	if blockLen <= 0 || blockLen > maxBlockTriples {
		blockLen = defaultBlockLen
	}
	bx := &blockIndex{
		baseN: len(triples),
		cache: newBlockCache(defaultCacheBlocks),
	}
	bx.ov = newOverlay()
	buf := make([]rdf.Triple, len(triples))
	for perm := permID(0); perm < numPerms; perm++ {
		bp := &bx.perms[perm]
		// Appending to the heap blob cannot fail, so neither can encodePerm.
		_ = encodePerm(triples, buf, perm, blockLen, func(n int, payload []byte, min, max [3]uint32) error {
			bp.metas = append(bp.metas, blockMeta{
				min: min, max: max,
				off: int64(len(bp.blob)), blen: int32(len(payload)), n: int32(n),
			})
			bp.blob = append(bp.blob, payload...)
			return nil
		})
	}
	// Equal triples are adjacent in every permutation order.
	for i := 1; i < len(triples); i++ {
		if triples[i] == triples[i-1] {
			bx.dups++
		}
	}
	return bx
}

func newOverlay() overlay {
	return overlay{
		ins:     newFlatIndex(nil),
		del:     make(map[rdf.Triple]int),
		delProp: make(map[rdf.PropertyID]int),
	}
}

// decode returns block bi of perm, consulting the cache. The payload was
// validated at construction or snapshot open, so a decode failure here is
// a programming error, not an input error.
func (bx *blockIndex) decode(perm permID, bi int) []rdf.Triple {
	ref := blockRef{perm: perm, bi: bi}
	if tr, ok := bx.cache.get(ref); ok {
		return tr
	}
	m := &bx.perms[perm].metas[bi]
	tr, err := decodeBlock(bx.perms[perm].payload(bi), int(m.n), perm, make([]rdf.Triple, 0, m.n))
	if err != nil {
		panic(fmt.Sprintf("store: validated %s block %d failed to decode: %v", permNames[perm], bi, err))
	}
	bx.cache.put(ref, tr)
	return tr
}

func (bx *blockIndex) numTriples() int {
	return bx.baseN - bx.ov.delTotal + len(bx.ov.ins.triples)
}

func (bx *blockIndex) dupPairs() int { return bx.dups }

const maxKey32 = ^uint32(0)

func (bx *blockIndex) countProperty(p rdf.PropertyID) int {
	n := bx.baseCountRange(permPOS, [3]uint32{uint32(p), 0, 0}, [3]uint32{uint32(p), maxKey32, maxKey32})
	return n - bx.ov.delProp[p] + bx.ov.ins.countProperty(p)
}

// baseCountRange counts base triples whose perm key lies in [lo, hi].
// Blocks entirely inside the range contribute their count without
// decoding; only boundary blocks decode.
func (bx *blockIndex) baseCountRange(perm permID, lo, hi [3]uint32) int {
	metas := bx.perms[perm].metas
	total := 0
	bi := sort.Search(len(metas), func(i int) bool { return keyCmp(metas[i].max, lo) >= 0 })
	for ; bi < len(metas); bi++ {
		m := &metas[bi]
		if keyCmp(m.min, hi) > 0 {
			break
		}
		if keyCmp(m.min, lo) >= 0 && keyCmp(m.max, hi) <= 0 {
			total += int(m.n)
			continue
		}
		blk := bx.decode(perm, bi)
		l := sort.Search(len(blk), func(i int) bool { return keyCmp(keyOf(perm, blk[i]), lo) >= 0 })
		h := sort.Search(len(blk), func(i int) bool { return keyCmp(keyOf(perm, blk[i]), hi) > 0 })
		total += h - l
	}
	return total
}

// liveCount returns how many instances of t the merged view holds.
func (bx *blockIndex) liveCount(t rdf.Triple) int {
	k := keyOf(permSPO, t)
	return bx.baseCountRange(permSPO, k, k) - bx.ov.del[t] + bx.ov.ins.countTriple(t)
}

func (bx *blockIndex) insert(t rdf.Triple) {
	if bx.liveCount(t) > 0 {
		bx.dups++
	}
	bx.ov.ins.insert(t)
}

func (bx *blockIndex) remove(t rdf.Triple) bool {
	live := bx.liveCount(t)
	if live == 0 {
		return false
	}
	if live > 1 {
		bx.dups--
	}
	if bx.ov.ins.countTriple(t) > 0 {
		bx.ov.ins.remove(t)
		return true
	}
	bx.ov.del[t]++
	bx.ov.delProp[t.P]++
	bx.ov.delTotal++
	return true
}

func (bx *blockIndex) candidates(s, p, o int64, yield func(rdf.Triple) bool) int {
	var perm permID
	var lo, hi [3]uint32
	var access int
	switch {
	case s >= 0:
		perm, access = permSPO, accessSPO
		lo, hi = [3]uint32{uint32(s), 0, 0}, [3]uint32{uint32(s), maxKey32, maxKey32}
		if p >= 0 {
			lo[1], hi[1] = uint32(p), uint32(p)
		}
	case o >= 0:
		perm, access = permOPS, accessOPS
		lo, hi = [3]uint32{uint32(o), 0, 0}, [3]uint32{uint32(o), maxKey32, maxKey32}
		if p >= 0 {
			lo[1], hi[1] = uint32(p), uint32(p)
		}
	case p >= 0:
		perm, access = permPOS, accessPOS
		lo, hi = [3]uint32{uint32(p), 0, 0}, [3]uint32{uint32(p), maxKey32, maxKey32}
	default:
		perm, access = permSPO, accessScan
		lo, hi = [3]uint32{0, 0, 0}, [3]uint32{maxKey32, maxKey32, maxKey32}
	}
	bx.iterMerged(perm, lo, hi, s, p, o, yield)
	return access
}

// iterMerged yields base and overlay triples in merged perm-key order over
// [lo, hi], skipping deleted base occurrences. Overlay triples with a key
// equal to a base run are yielded first, matching the flat layout's
// splice-before-equals insert (the values are identical either way).
func (bx *blockIndex) iterMerged(perm permID, lo, hi [3]uint32, s, p, o int64, yield func(rdf.Triple) bool) {
	// Overlay candidates for the same constraint: flatIndex dispatches on
	// the identical bound-component switch, so the order and range agree.
	var ovs []rdf.Triple
	if len(bx.ov.ins.triples) > 0 {
		bx.ov.ins.candidates(s, p, o, func(t rdf.Triple) bool {
			ovs = append(ovs, t)
			return true
		})
	}
	oi := 0
	// emitOv yields pending overlay triples with key ≤ k.
	emitOv := func(k [3]uint32) bool {
		for oi < len(ovs) && keyCmp(keyOf(perm, ovs[oi]), k) <= 0 {
			if !yield(ovs[oi]) {
				return false
			}
			oi++
		}
		return true
	}
	// Deletion skip: equal triples are adjacent in every permutation, and
	// the range bounds never split a run of equals (bounds are prefix
	// boundaries), so counting skips per run suffices.
	var curT rdf.Triple
	curSkip, haveCur := 0, false
	deleted := func(t rdf.Triple) bool {
		if len(bx.ov.del) == 0 {
			return false
		}
		if !haveCur || t != curT {
			curT, curSkip, haveCur = t, 0, true
		}
		if curSkip < bx.ov.del[t] {
			curSkip++
			return true
		}
		return false
	}
	metas := bx.perms[perm].metas
	bi := sort.Search(len(metas), func(i int) bool { return keyCmp(metas[i].max, lo) >= 0 })
base:
	for ; bi < len(metas); bi++ {
		m := &metas[bi]
		if keyCmp(m.min, hi) > 0 {
			break
		}
		blk := bx.decode(perm, bi)
		start := 0
		if keyCmp(m.min, lo) < 0 {
			start = sort.Search(len(blk), func(i int) bool { return keyCmp(keyOf(perm, blk[i]), lo) >= 0 })
		}
		for _, t := range blk[start:] {
			k := keyOf(perm, t)
			if keyCmp(k, hi) > 0 {
				break base
			}
			if !emitOv(k) {
				return
			}
			if deleted(t) {
				continue
			}
			if !yield(t) {
				return
			}
		}
	}
	// Remaining overlay triples (all within [lo, hi] by construction).
	for ; oi < len(ovs); oi++ {
		if !yield(ovs[oi]) {
			return
		}
	}
}
