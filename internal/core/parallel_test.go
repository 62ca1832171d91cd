package core

import (
	"fmt"
	"reflect"
	"testing"

	"mpc/internal/datagen"
	"mpc/internal/dsf"
	"mpc/internal/partition"
	"mpc/internal/rdf"
)

// workerMatrix is the determinism sweep: the serial path, a small pool, and
// a pool larger than the candidate batches.
var workerMatrix = []int{1, 2, 8}

// TestSelectorsDeterministicAcrossWorkers checks that both worker-aware
// selectors return the identical L_in at every worker count. LUBM and
// WatDiv have few properties; the DBpedia-like graph's thousands run the
// greedy selector through thousands of selection rounds.
func TestSelectorsDeterministicAcrossWorkers(t *testing.T) {
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.WatDiv{}, datagen.DBpedia{}} {
		g := gen.Generate(20000, 1)
		cap := partition.Options{K: 8, Epsilon: 0.1}.Cap(g.NumVertices())
		for _, mk := range []func(w int) Selector{
			func(w int) Selector { return GreedySelector{Workers: w} },
			func(w int) Selector { return ReverseGreedySelector{Workers: w} },
		} {
			var ref []rdf.PropertyID
			for _, w := range workerMatrix {
				sel := mk(w)
				lin := sel.SelectInternal(g, cap)
				if ref == nil {
					ref = lin
					if len(ref) == 0 {
						t.Fatalf("%s/%s: empty L_in", gen.Name(), sel.Name())
					}
					continue
				}
				if !reflect.DeepEqual(ref, lin) {
					t.Errorf("%s/%s: workers=%d L_in %v != workers=1 L_in %v",
						gen.Name(), sel.Name(), w, lin, ref)
				}
			}
		}
	}
}

// TestPartitionFullDeterministicAcrossWorkers checks the whole pipeline:
// identical L_in and identical vertex assignments for every Options.Workers.
func TestPartitionFullDeterministicAcrossWorkers(t *testing.T) {
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.WatDiv{}} {
		g := gen.Generate(20000, 1)
		var ref *Result
		for _, w := range workerMatrix {
			opts := partition.Options{K: 8, Epsilon: 0.1, Seed: 7, Workers: w}
			res, err := (MPC{}).PartitionFull(g, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", gen.Name(), w, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(ref.LIn, res.LIn) {
				t.Errorf("%s: workers=%d L_in differs", gen.Name(), w)
			}
			if !reflect.DeepEqual(ref.Assign, res.Assign) {
				t.Errorf("%s: workers=%d assignment differs", gen.Name(), w)
			}
		}
	}
}

// TestInComponentEdgesCountsEitherEndpoint is the regression test for the
// reverse-greedy candidate counter: an edge belongs to a component when
// either endpoint roots there. The seed implementation only tested the
// subject, so a property whose edges point INTO the big component from
// outside (object in, subject out) was counted as having no edges there and
// never became a removal candidate.
func TestInComponentEdgesCountsEitherEndpoint(t *testing.T) {
	g := rdf.NewGraph()
	// A chain a0..a5 under property "in" forms the big component.
	for i := 0; i < 5; i++ {
		g.AddTriple(fmt.Sprintf("a%d", i), "in", fmt.Sprintf("a%d", i+1))
	}
	// "bridge" edges point from isolated b-vertices into the chain:
	// subject outside the component, object inside.
	for i := 0; i < 3; i++ {
		g.AddTriple(fmt.Sprintf("b%d", i), "bridge", fmt.Sprintf("a%d", i))
	}
	g.Freeze()

	// Forest over "in" only, as reverse-greedy sees it after excluding
	// bridge: the b-vertices are singletons outside the big component.
	f := dsf.New(g.NumVertices())
	in := propID(t, g, "in")
	bridge := propID(t, g, "bridge")
	for _, ti := range g.PropertyTriples(in) {
		tr := g.Triple(ti)
		f.Union(int32(tr.S), int32(tr.O))
	}
	a0, ok := g.Vertices.Lookup("a0")
	if !ok {
		t.Fatal("vertex a0 missing")
	}
	roots := f.Roots()
	bigRoot := roots[a0]

	if got := inComponentEdges(g, roots, bridge, bigRoot); got != 3 {
		t.Errorf("inComponentEdges(bridge) = %d, want 3 (object endpoints are in the component)", got)
	}
	// Subject-only counting — the seed behavior — would return 0 and drop
	// bridge from the candidate list entirely.
	sOnly := 0
	for _, ti := range g.PropertyTriples(bridge) {
		if roots[g.Triple(ti).S] == bigRoot {
			sOnly++
		}
	}
	if sOnly != 0 {
		t.Fatalf("test graph broken: subject-only count = %d, want 0", sOnly)
	}

	removed := make([]bool, g.NumProperties())
	for _, w := range workerMatrix {
		cands := removalCandidates(g, roots, bigRoot, removed, 32, w)
		found := false
		for _, c := range cands {
			if c.prop == bridge {
				found = true
				if c.edges != 3 {
					t.Errorf("workers=%d: bridge candidate has %d edges, want 3", w, c.edges)
				}
			}
		}
		if !found {
			t.Errorf("workers=%d: bridge missing from removal candidates %v", w, cands)
		}
	}
}
