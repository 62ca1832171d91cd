package store

import (
	"math/rand"
	"reflect"
	"testing"

	"mpc/internal/rdf"
)

// checkSorted verifies all three indexes are permutations of the triple
// positions in their respective orders and that dupPairs is exact.
func checkStoreInvariants(t *testing.T, st *Store) {
	t.Helper()
	x, ok := st.idx.(*flatIndex)
	if !ok {
		// Block-backed store: verify the maintained dup count against a
		// full merged scan, which blocks_test covers in more depth.
		checkBlockDupPairs(t, st.idx.(*blockIndex))
		return
	}
	n := len(x.triples)
	if len(x.spo) != n || len(x.pos) != n || len(x.ops) != n {
		t.Fatalf("index lengths %d/%d/%d, triples %d", len(x.spo), len(x.pos), len(x.ops), n)
	}
	check := func(name string, idx []int32, cmp func(a, b rdf.Triple) int) {
		seen := make([]bool, n)
		for i, pos := range idx {
			if seen[pos] {
				t.Fatalf("%s: position %d appears twice", name, pos)
			}
			seen[pos] = true
			if i > 0 && cmp(x.triples[pos], x.triples[idx[i-1]]) < 0 {
				t.Fatalf("%s: out of order at %d", name, i)
			}
		}
	}
	check("spo", x.spo, cmpSPO)
	check("pos", x.pos, cmpPOS)
	check("ops", x.ops, cmpOPS)
	dups := 0
	for i := 1; i < n; i++ {
		if x.triples[x.spo[i]] == x.triples[x.spo[i-1]] {
			dups++
		}
	}
	if x.dups != dups {
		t.Fatalf("dupPairs = %d, actual adjacent-equal pairs = %d", x.dups, dups)
	}
}

// checkBlockDupPairs recomputes a block index's duplicate-pair count from
// a merged full scan and compares it with the maintained counter.
func checkBlockDupPairs(t *testing.T, bx *blockIndex) {
	t.Helper()
	var prev rdf.Triple
	first, dups, n := true, 0, 0
	bx.candidates(-1, -1, -1, func(tr rdf.Triple) bool {
		if !first && tr == prev {
			dups++
		}
		prev, first = tr, false
		n++
		return true
	})
	if bx.dups != dups {
		t.Fatalf("block dupPairs = %d, merged scan finds %d", bx.dups, dups)
	}
	if n != bx.numTriples() {
		t.Fatalf("block numTriples = %d, merged scan yields %d", bx.numTriples(), n)
	}
}

// Regression for the stale hasReplicas gate: the flag used to be computed
// once at construction, so a post-load insert that created the first
// duplicate left the dedup gate off and Match returned duplicated rows.
func TestHasReplicasMaintainedOnMutation(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	if st.HasReplicas() {
		t.Fatal("fixture store should start replica-free")
	}
	tr := g.Triple(0) // film1-starring-actor1
	st.Insert(tr)     // second copy: first duplicate
	if !st.HasReplicas() {
		t.Fatal("insert of a duplicate did not raise HasReplicas")
	}
	// Dedup must collapse the replicated triple to one binding.
	tab := mustMatch(t, st, `SELECT * WHERE { <film1> <starring> ?a }`)
	if tab.Len() != 2 {
		t.Fatalf("matches = %d, want 2 (replica must dedup)", tab.Len())
	}
	if !st.Delete(tr) {
		t.Fatal("delete of replicated triple failed")
	}
	if st.HasReplicas() {
		t.Fatal("HasReplicas still set after the duplicate was removed")
	}
	// The surviving copy still matches.
	tab = mustMatch(t, st, `SELECT * WHERE { <film1> <starring> ?a }`)
	if tab.Len() != 2 {
		t.Fatalf("matches = %d, want 2 after delete", tab.Len())
	}
	checkStoreInvariants(t, st)
}

func TestStoreDeleteNonexistent(t *testing.T) {
	g := movieGraph()
	st := fullStore(g)
	ghost := rdf.Triple{S: 0, P: rdf.PropertyID(g.NumProperties() - 1), O: 0}
	if st.Delete(ghost) {
		t.Fatal("delete of absent triple reported success")
	}
	stats := st.ApplyResolved([]rdf.ResolvedUpdate{{T: ghost}})
	if stats.NotFound != 1 || stats.Deleted != 0 {
		t.Fatalf("stats = %+v, want NotFound 1", stats)
	}
	checkStoreInvariants(t, st)
}

// Randomized differential test: a mutation stream applied to one store
// matches a store rebuilt from scratch at every checkpoint.
func TestStoreMutationStreamMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nV, nP := 15, 3
		for i := 0; i < 30; i++ {
			g.AddTripleIDs(rdf.VertexID(rng.Intn(nV)), rdf.PropertyID(rng.Intn(nP)), rdf.VertexID(rng.Intn(nV)))
		}
		// Intern the IDs the stream will use.
		for i := 0; i < nV; i++ {
			g.Vertices.Intern(string(rune('a' + i)))
		}
		for i := 0; i < nP; i++ {
			g.Properties.Intern("p" + string(rune('0'+i)))
		}
		g.Freeze()
		st := fullStore(g)
		live := append([]rdf.Triple(nil), st.idx.(*flatIndex).triples...)
		for step := 0; step < 150; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				tr := rdf.Triple{
					S: rdf.VertexID(rng.Intn(nV)),
					P: rdf.PropertyID(rng.Intn(nP)),
					O: rdf.VertexID(rng.Intn(nV)),
				}
				st.Insert(tr)
				live = append(live, tr)
			} else {
				i := rng.Intn(len(live))
				if !st.Delete(live[i]) {
					t.Fatalf("seed %d step %d: delete of live triple failed", seed, step)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if step%30 != 0 {
				continue
			}
			checkStoreInvariants(t, st)
			// Rebuild from scratch at the same content and compare matcher
			// output on a scan-everything query.
			want := mustMatch(t, freshStore(g, live), `SELECT * WHERE { ?s ?p ?o }`)
			got := mustMatch(t, st, `SELECT * WHERE { ?s ?p ?o }`)
			w, gg := rowStrings(g, want), rowStrings(g, got)
			if !reflect.DeepEqual(w, gg) {
				t.Fatalf("seed %d step %d: match rows diverge from rebuilt store", seed, step)
			}
		}
	}
}

// freshStore builds a store directly over a triple value list (test-only),
// with an independent insertion-sort construction of the permutations.
func freshStore(g *rdf.Graph, triples []rdf.Triple) *Store {
	x := &flatIndex{triples: append([]rdf.Triple(nil), triples...)}
	n := len(x.triples)
	x.spo = make([]int32, n)
	x.pos = make([]int32, n)
	x.ops = make([]int32, n)
	for i := 0; i < n; i++ {
		x.spo[i], x.pos[i], x.ops[i] = int32(i), int32(i), int32(i)
	}
	sortIdx := func(idx []int32, cmp func(a, b rdf.Triple) int) {
		tr := x.triples
		for i := 1; i < n; i++ { // insertion sort: small n in tests
			for j := i; j > 0 && cmp(tr[idx[j]], tr[idx[j-1]]) < 0; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
	}
	sortIdx(x.spo, cmpSPO)
	sortIdx(x.pos, cmpPOS)
	sortIdx(x.ops, cmpOPS)
	for i := 1; i < n; i++ {
		if x.triples[x.spo[i]] == x.triples[x.spo[i-1]] {
			x.dups++
		}
	}
	return &Store{g: g, idx: x}
}
