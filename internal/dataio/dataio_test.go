package dataio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpc/internal/rdf"
	"mpc/internal/store"
)

func sample() *rdf.Graph {
	g := rdf.NewGraph()
	g.AddTriple("http://ex/a", "http://ex/p", "http://ex/b")
	g.AddTriple("http://ex/b", "http://ex/p", `"lit"`)
	g.Freeze()
	return g
}

func TestRoundtripNTriples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.nt")
	g := sample()
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTriples() != g.NumTriples() {
		t.Fatalf("triples = %d, want %d", g2.NumTriples(), g.NumTriples())
	}
}

func TestRoundtripSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g"+SnapshotExt)
	g := sample()
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTriples() != g.NumTriples() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("roundtrip mismatch: %s vs %s", g.Stats(), g2.Stats())
	}
	// Snapshot preserves exact IDs, so triples match positionally.
	for i := 0; i < g.NumTriples(); i++ {
		if g.Triple(int32(i)) != g2.Triple(int32(i)) {
			t.Fatalf("triple %d differs", i)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.nt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSaveFileBadDir(t *testing.T) {
	if err := SaveFile(filepath.Join(t.TempDir(), "no", "dir", "g.nt"), sample()); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

// fakeLayout is a minimal two-site split of a graph for snapshot export.
type fakeLayout struct {
	g     *rdf.Graph
	sites [][]int32
}

func (l fakeLayout) NumSites() int             { return len(l.sites) }
func (l fakeLayout) SiteTriples(i int) []int32 { return l.sites[i] }
func (l fakeLayout) Graph() *rdf.Graph         { return l.g }

func TestSaveSiteSnapshots(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple("http://ex/a", "http://ex/p", "http://ex/b")
	g.AddTriple("http://ex/b", "http://ex/q", "http://ex/c")
	g.AddTriple("http://ex/c", "http://ex/p", "http://ex/a")
	g.Freeze()
	layout := fakeLayout{g: g, sites: [][]int32{{0, 2}, {1}}}

	prefix := filepath.Join(t.TempDir(), "part")
	paths, err := SaveSiteSnapshots(prefix, layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for i, path := range paths {
		if v, err := store.SnapshotVersion(path); err != nil || v != store.BlockSnapshotVersion {
			t.Fatalf("site %d: version = %d, %v; want %d", i, v, err, store.BlockSnapshotVersion)
		}
		sub, err := LoadFile(path)
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
		// Full dictionaries travel with every site so IDs stay shared.
		if sub.NumVertices() != g.NumVertices() || sub.NumProperties() != g.NumProperties() {
			t.Fatalf("site %d: dictionaries truncated: %d/%d vertices, %d/%d properties",
				i, sub.NumVertices(), g.NumVertices(), sub.NumProperties(), g.NumProperties())
		}
		want := layout.SiteTriples(i)
		if sub.NumTriples() != len(want) {
			t.Fatalf("site %d: %d triples, want %d", i, sub.NumTriples(), len(want))
		}
		// v3 snapshots store triples in SPO order, not source order: compare
		// as multisets of (S,P,O) values.
		wantCount := map[rdf.Triple]int{}
		for _, ti := range want {
			wantCount[g.Triple(ti)]++
		}
		for j := 0; j < sub.NumTriples(); j++ {
			tr := sub.Triple(int32(j))
			if wantCount[tr] == 0 {
				t.Fatalf("site %d: unexpected triple %v", i, tr)
			}
			wantCount[tr]--
		}

		// The serving path: open the snapshot as a mapped store and check it
		// answers a scan with the same triples.
		st, err := OpenSiteStore(path)
		if err != nil {
			t.Fatalf("site %d: open store: %v", i, err)
		}
		if st.NumTriples() != len(want) {
			t.Fatalf("site %d: store holds %d triples, want %d", i, st.NumTriples(), len(want))
		}
		if err := st.Close(); err != nil {
			t.Fatalf("site %d: close: %v", i, err)
		}
	}
}

// TestSaveSiteSnapshotsFailureLeavesNoFiles: when one site's export fails
// (here a directory squats on site 2's path), the sites already written
// are removed, so no partial export remains for mpc-site to open.
func TestSaveSiteSnapshotsFailureLeavesNoFiles(t *testing.T) {
	g := sample()
	layout := fakeLayout{g: g, sites: [][]int32{{0}, {1}, {0}, {1}}}
	prefix := filepath.Join(t.TempDir(), "part")
	if err := os.Mkdir(prefix+".site2"+SnapshotExt, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSiteSnapshots(prefix, layout); err == nil {
		t.Fatal("export over a blocked site path succeeded")
	}
	matches, err := filepath.Glob(prefix + ".site*" + SnapshotExt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if fi, err := os.Stat(m); err != nil || fi.Mode().IsRegular() {
			t.Errorf("%s left behind after a failed export", filepath.Base(m))
		}
	}
}

// TestOpenSiteStoreRejectsNonSites checks that only v3 block snapshots
// open as sites: a whole-graph v1/v2 snapshot and a plain .nt file are
// refused with an error that says what to do instead.
func TestOpenSiteStoreRejectsNonSites(t *testing.T) {
	g := sample()
	for _, name := range []string{"g" + SnapshotExt, "g.nt"} {
		path := filepath.Join(t.TempDir(), name)
		if err := SaveFile(path, g); err != nil {
			t.Fatal(err)
		}
		st, err := OpenSiteStore(path)
		if err == nil {
			st.Close()
			t.Fatalf("%s: opened as a site store", name)
		}
		if !strings.Contains(err.Error(), "-export-snapshots") {
			t.Fatalf("%s: error does not point at the export step: %v", name, err)
		}
	}
}
