package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"mpc/internal/rdf"
)

// randomSortedRun generates a random run of triples sorted in perm order,
// with duplicates.
func randomSortedRun(rng *rand.Rand, perm permID, n, nV, nP int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{
			S: rdf.VertexID(rng.Intn(nV)),
			P: rdf.PropertyID(rng.Intn(nP)),
			O: rdf.VertexID(rng.Intn(nV)),
		}
		if i > 0 && rng.Intn(4) == 0 {
			out[i] = out[i-1] // force duplicates
		}
	}
	sort.Slice(out, func(a, b int) bool {
		return keyCmp(keyOf(perm, out[a]), keyOf(perm, out[b])) < 0
	})
	return out
}

// TestBlockCodecRoundtrip: encode/decode roundtrip over random sorted runs
// for every permutation, including runs with extreme key values.
func TestBlockCodecRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for perm := permID(0); perm < numPerms; perm++ {
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(200)
			run := randomSortedRun(rng, perm, n, 1+rng.Intn(1000), 1+rng.Intn(50))
			if trial == 0 {
				// Extreme component values exercise the overflow checks.
				run = []rdf.Triple{{S: 0, P: 0, O: 0}, {S: ^rdf.VertexID(0), P: ^rdf.PropertyID(0), O: ^rdf.VertexID(0)}}
				sort.Slice(run, func(a, b int) bool {
					return keyCmp(keyOf(perm, run[a]), keyOf(perm, run[b])) < 0
				})
			}
			payload, min, max := appendBlock(nil, perm, run)
			if min != keyOf(perm, run[0]) || max != keyOf(perm, run[len(run)-1]) {
				t.Fatalf("perm %v: min/max disagree with run ends", perm)
			}
			got, err := decodeBlock(payload, len(run), perm, nil)
			if err != nil {
				t.Fatalf("perm %v trial %d: decode: %v", perm, trial, err)
			}
			if !reflect.DeepEqual(got, run) {
				t.Fatalf("perm %v trial %d: roundtrip mismatch", perm, trial)
			}
		}
	}
}

// TestBlockCodecCorruption: truncation at every prefix and random byte
// flips must error or succeed — never panic.
func TestBlockCodecCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	run := randomSortedRun(rng, permSPO, 64, 500, 10)
	payload, _, _ := appendBlock(nil, permSPO, run)
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeBlock(payload[:cut], len(run), permSPO, nil); err == nil {
			t.Fatalf("truncation at %d of %d decoded cleanly", cut, len(payload))
		}
	}
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), payload...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		decodeBlock(mut, len(run), permSPO, nil) // must not panic
	}
	// Hostile triple counts.
	if _, err := decodeBlock(payload, -1, permSPO, nil); err == nil {
		t.Fatal("negative count decoded cleanly")
	}
	if _, err := decodeBlock(payload, maxBlockTriples+1, permSPO, nil); err == nil {
		t.Fatal("oversized count decoded cleanly")
	}
}

// FuzzBlockCodec mirrors FuzzTableCodec: arbitrary bytes must never panic,
// and anything that decodes must re-encode to a payload that decodes to
// the same run.
func FuzzBlockCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 6; i++ {
		run := randomSortedRun(rng, permID(i%int(numPerms)), 1+rng.Intn(100), 300, 8)
		payload, _, _ := appendBlock(nil, permID(i%int(numPerms)), run)
		f.Add(payload, len(run))
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0x80}, 1)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		for perm := permID(0); perm < numPerms; perm++ {
			run, err := decodeBlock(data, n, perm, nil)
			if err != nil {
				continue
			}
			// Decoded runs are sorted by construction of the delta format.
			for i := 1; i < len(run); i++ {
				if keyCmp(keyOf(perm, run[i-1]), keyOf(perm, run[i])) > 0 {
					t.Fatalf("perm %v: decoded run out of order at %d", perm, i)
				}
			}
			again, _, _ := appendBlock(nil, perm, run)
			run2, err := decodeBlock(again, len(run), perm, nil)
			if err != nil {
				t.Fatalf("perm %v: re-decode of re-encoding failed: %v", perm, err)
			}
			if !reflect.DeepEqual(run, run2) {
				t.Fatalf("perm %v: re-encoding is not stable", perm)
			}
		}
	})
}

// scanIndex collects a full candidate enumeration for the given bound
// components.
func scanIndex(x tripleIndex, s, p, o int64) []rdf.Triple {
	var out []rdf.Triple
	x.candidates(s, p, o, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// randomTriples returns n random triples over small ID spaces (forcing
// range reuse and duplicates).
func randomTriples(rng *rand.Rand, n, nV, nP int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{
			S: rdf.VertexID(rng.Intn(nV)),
			P: rdf.PropertyID(rng.Intn(nP)),
			O: rdf.VertexID(rng.Intn(nV)),
		}
	}
	return out
}

// TestBlockIndexSeekEquivalence: every access path of the block index
// (prefix seeks over each permutation plus the full scan) yields exactly
// the flat index's candidate sequence — before and after a mutation
// stream that exercises the overlay.
func TestBlockIndexSeekEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nV, nP := 12+rng.Intn(20), 2+rng.Intn(4)
		triples := randomTriples(rng, 300+rng.Intn(400), nV, nP)
		flat := newFlatIndex(append([]rdf.Triple(nil), triples...))
		// Tiny blocks so multi-block ranges and boundary runs occur.
		blk := newBlockIndex(append([]rdf.Triple(nil), triples...), 16)

		compare := func(stage string) {
			t.Helper()
			if flat.numTriples() != blk.numTriples() {
				t.Fatalf("seed %d %s: numTriples flat %d block %d", seed, stage, flat.numTriples(), blk.numTriples())
			}
			if flat.dupPairs() != blk.dupPairs() {
				t.Fatalf("seed %d %s: dupPairs flat %d block %d", seed, stage, flat.dupPairs(), blk.dupPairs())
			}
			for p := 0; p < nP; p++ {
				if f, b := flat.countProperty(rdf.PropertyID(p)), blk.countProperty(rdf.PropertyID(p)); f != b {
					t.Fatalf("seed %d %s: countProperty(%d) flat %d block %d", seed, stage, p, f, b)
				}
			}
			// All four access paths over random bound combinations.
			for trial := 0; trial < 60; trial++ {
				s, p, o := int64(-1), int64(-1), int64(-1)
				switch trial % 6 {
				case 0:
					s = int64(rng.Intn(nV))
				case 1:
					s, p = int64(rng.Intn(nV)), int64(rng.Intn(nP))
				case 2:
					o = int64(rng.Intn(nV))
				case 3:
					o, p = int64(rng.Intn(nV)), int64(rng.Intn(nP))
				case 4:
					p = int64(rng.Intn(nP))
				case 5: // full scan
				}
				f, b := scanIndex(flat, s, p, o), scanIndex(blk, s, p, o)
				if !reflect.DeepEqual(f, b) {
					t.Fatalf("seed %d %s: candidates(%d,%d,%d) diverge: flat %d block %d rows",
						seed, stage, s, p, o, len(f), len(b))
				}
			}
		}
		compare("initial")

		live := append([]rdf.Triple(nil), triples...)
		for step := 0; step < 120; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				tr := rdf.Triple{
					S: rdf.VertexID(rng.Intn(nV)),
					P: rdf.PropertyID(rng.Intn(nP)),
					O: rdf.VertexID(rng.Intn(nV)),
				}
				flat.insert(tr)
				blk.insert(tr)
				live = append(live, tr)
			} else {
				i := rng.Intn(len(live))
				fok, bok := flat.remove(live[i]), blk.remove(live[i])
				if !fok || !bok {
					t.Fatalf("seed %d step %d: remove flat=%v block=%v", seed, step, fok, bok)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		compare("mutated")
		// Ghost removals must agree too.
		ghost := rdf.Triple{S: rdf.VertexID(nV + 1), P: 0, O: 0}
		if flat.remove(ghost) || blk.remove(ghost) {
			t.Fatalf("seed %d: ghost delete succeeded", seed)
		}
	}
}

// TestBlockStoreMatchEquivalence: Match over a block-backed store is
// bit-identical to the flat store, including duplicate collapsing.
func TestBlockStoreMatchEquivalence(t *testing.T) {
	g := movieGraph()
	idx := allSlots(g)
	idx = append(idx, idx[0]) // replicate one triple: dedup gate on
	flat := New(g, idx)
	blk := NewBlock(g, idx)
	queries := []string{
		`SELECT * WHERE { ?s ?p ?o }`,
		`SELECT * WHERE { <film1> <starring> ?a }`,
		`SELECT * WHERE { ?f <starring> ?a . ?a <bornIn> ?c }`,
		`SELECT * WHERE { ?f <starring> <actor1> . ?f <directedBy> ?d }`,
	}
	for _, q := range queries {
		want := rowStrings(g, mustMatch(t, flat, q))
		got := rowStrings(g, mustMatch(t, blk, q))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %q: flat %v block %v", q, want, got)
		}
	}
	if flat.HasReplicas() != blk.HasReplicas() {
		t.Fatal("HasReplicas disagrees")
	}
}

// allSlots lists every triple slot of g.
func allSlots(g *rdf.Graph) []int32 {
	idx := make([]int32, g.NumTriples())
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// TestBlockSnapshotRoundtrip: WriteBlockSnapshot → OpenSnapshot preserves
// the store bit-identically (matches, counts, dictionaries) and the
// opened store accepts live updates through its overlay.
func TestBlockSnapshotRoundtrip(t *testing.T) {
	g := movieGraph()
	idx := allSlots(g)
	path := filepath.Join(t.TempDir(), "site0.mpcg")
	if err := SaveBlockSnapshot(path, g, idx); err != nil {
		t.Fatalf("save: %v", err)
	}
	if v, err := SnapshotVersion(path); err != nil || v != BlockSnapshotVersion {
		t.Fatalf("SnapshotVersion = %d, %v", v, err)
	}
	st, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	flat := New(g, idx)
	if st.NumTriples() != flat.NumTriples() {
		t.Fatalf("NumTriples %d, want %d", st.NumTriples(), flat.NumTriples())
	}
	if st.Graph().Vertices.Len() != g.Vertices.Len() || st.Graph().Properties.Len() != g.Properties.Len() {
		t.Fatal("dictionaries did not roundtrip")
	}
	queries := []string{
		`SELECT * WHERE { ?s ?p ?o }`,
		`SELECT * WHERE { ?f <starring> ?a . ?a <bornIn> ?c }`,
	}
	for _, q := range queries {
		want := rowStrings(g, mustMatch(t, flat, q))
		got := rowStrings(g, mustMatch(t, st, q))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %q diverges after snapshot roundtrip", q)
		}
	}
	// Live updates over the mapped base.
	tr := g.Triple(0)
	st.Insert(tr)
	flat.Insert(tr)
	if !st.HasReplicas() {
		t.Fatal("insert over mapped base did not raise HasReplicas")
	}
	if !st.Delete(g.Triple(1)) || !flat.Delete(g.Triple(1)) {
		t.Fatal("delete over mapped base failed")
	}
	for _, q := range queries {
		want := rowStrings(g, mustMatch(t, flat, q))
		got := rowStrings(g, mustMatch(t, st, q))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %q diverges after live updates", q)
		}
	}
}

// TestBlockSnapshotCorruption: every truncation of a valid snapshot and a
// pile of byte flips must be rejected or load consistently — never panic.
func TestBlockSnapshotCorruption(t *testing.T) {
	g := movieGraph()
	var buf bytes.Buffer
	if err := WriteBlockSnapshot(&buf, g, allSlots(g)); err != nil {
		t.Fatalf("write: %v", err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := openSnapshotBytes(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d opened cleanly", cut, len(data))
		}
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		for flips := 1 + rng.Intn(6); flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		st, err := openSnapshotBytes(mut) // must not panic
		if err == nil {
			// A flip that survives validation must still yield a working
			// store: a full scan may not panic either.
			mustMatch(t, st, `SELECT * WHERE { ?s ?p ?o }`)
		}
	}
	// Wrong version and wrong magic.
	if _, err := openSnapshotBytes([]byte("MPCX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "missing.mpcg")); err == nil {
		t.Fatal("missing file opened")
	}
	bad := filepath.Join(t.TempDir(), "bad.mpcg")
	if err := os.WriteFile(bad, []byte("MPCG\x01rest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bad); err == nil {
		t.Fatal("v1 snapshot accepted by block opener")
	}
}

// TestBlockCacheEviction: a cache far smaller than the block count still
// serves correct results (every access decodes through the LRU).
func TestBlockCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	triples := randomTriples(rng, 2000, 50, 4)
	blk := newBlockIndex(append([]rdf.Triple(nil), triples...), 16)
	blk.cache = newBlockCache(2) // pathological: everything thrashes
	flat := newFlatIndex(append([]rdf.Triple(nil), triples...))
	for trial := 0; trial < 40; trial++ {
		s := int64(rng.Intn(50))
		if f, b := scanIndex(flat, s, -1, -1), scanIndex(blk, s, -1, -1); !reflect.DeepEqual(f, b) {
			t.Fatalf("trial %d: eviction-thrashed scan diverges", trial)
		}
	}
	if got := scanIndex(blk, -1, -1, -1); len(got) != len(triples) {
		t.Fatalf("full scan yields %d of %d triples", len(got), len(triples))
	}
}

// TestBlockEncodersAgree: NewBlock, the same triples written as a snapshot
// and reopened with OpenSnapshot, and a Compact that lands on the same
// multiset hold identical block directories and payloads — one encoder
// builds all three.
func TestBlockEncodersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nV, nP = 400, 6
	g := rdf.NewGraph()
	for i := 0; i < nV; i++ {
		g.Vertices.Intern("v" + strconv.Itoa(i))
	}
	for i := 0; i < nP; i++ {
		g.Properties.Intern("p" + strconv.Itoa(i))
	}
	for _, tr := range randomTriples(rng, 5000, nV, nP) { // ≈5 blocks per permutation, with duplicates
		g.AddTripleIDs(tr.S, tr.P, tr.O)
	}
	g.Freeze()
	idx := allSlots(g)

	built := NewBlock(g, idx).idx.(*blockIndex)
	path := filepath.Join(t.TempDir(), "site.mpcg")
	if err := SaveBlockSnapshot(path, g, idx); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	// Compact a store that reaches the same multiset through its overlay:
	// the last 700 triples inserted, plus one extra triple inserted and
	// deleted again.
	compacted := NewBlock(g, idx[:len(idx)-700])
	for _, ti := range idx[len(idx)-700:] {
		compacted.Insert(g.Triple(ti))
	}
	compacted.Insert(rdf.Triple{S: nV - 1, P: nP - 1, O: nV - 1})
	compacted.Delete(rdf.Triple{S: nV - 1, P: nP - 1, O: nV - 1})
	if !compacted.Compact() {
		t.Fatal("Compact found nothing to reseal")
	}

	for name, other := range map[string]*blockIndex{
		"OpenSnapshot": opened.idx.(*blockIndex),
		"Compact":      compacted.idx.(*blockIndex),
	} {
		if other.baseN != built.baseN || other.dups != built.dups {
			t.Fatalf("%s: %d triples / %d dup pairs, NewBlock %d / %d", name, other.baseN, other.dups, built.baseN, built.dups)
		}
		for perm := permID(0); perm < numPerms; perm++ {
			want, got := &built.perms[perm], &other.perms[perm]
			if len(got.metas) != len(want.metas) {
				t.Fatalf("%s %s: %d blocks, NewBlock %d", name, permNames[perm], len(got.metas), len(want.metas))
			}
			for bi := range want.metas {
				w, o := want.metas[bi], got.metas[bi]
				if w.min != o.min || w.max != o.max || w.n != o.n || !bytes.Equal(want.payload(bi), got.payload(bi)) {
					t.Fatalf("%s %s block %d differs from NewBlock's", name, permNames[perm], bi)
				}
			}
		}
	}
}

// TestSortPermMatchesComparator: the radix sort orders every permutation
// exactly as its comparator does, across ID magnitudes from a few bits to
// the full 32 (so every digit pass, skipped or not, is exercised).
func TestSortPermMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cmps := [numPerms]func(a, b rdf.Triple) int{permSPO: cmpSPO, permPOS: cmpPOS, permOPS: cmpOPS}
	for _, bits := range []int{1, 4, 9, 17, 25, 32} {
		id := func() uint32 { return uint32(rng.Uint64() >> (64 - bits)) }
		triples := make([]rdf.Triple, 3000)
		for i := range triples {
			triples[i] = rdf.Triple{S: rdf.VertexID(id()), P: rdf.PropertyID(id()), O: rdf.VertexID(id())}
		}
		buf := make([]rdf.Triple, len(triples))
		for perm := permID(0); perm < numPerms; perm++ {
			want := slices.Clone(triples)
			slices.SortFunc(want, cmps[perm])
			sortPerm(triples, buf, perm)
			if !slices.Equal(triples, want) {
				t.Fatalf("%d-bit IDs, %s: radix order differs from the comparator's", bits, permNames[perm])
			}
		}
	}
}
