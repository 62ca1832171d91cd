// Package dataio loads and saves RDF graphs from files, dispatching on the
// extension: ".nt" (and anything else) is parsed as N-Triples, ".mpcg" as
// the compact binary snapshot of internal/rdf, which loads about an order
// of magnitude faster and is what the benchmark tooling caches.
package dataio

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"mpc/internal/ntriples"
	"mpc/internal/rdf"
	"mpc/internal/store"
)

// SnapshotExt is the file extension of the binary snapshot format.
const SnapshotExt = ".mpcg"

// LoadFile reads an RDF graph from path. The returned graph is frozen.
// All three snapshot versions load: v1/v2 via the rdf reader, v3 block
// snapshots by decoding every block back into the heap (SPO order; same
// triple multiset, so identical query answers).
func LoadFile(path string) (*rdf.Graph, error) {
	if strings.HasSuffix(path, SnapshotExt) {
		v, err := store.SnapshotVersion(path)
		if err != nil {
			return nil, err
		}
		if v == store.BlockSnapshotVersion {
			return store.ReadSnapshotGraph(path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rdf.ReadSnapshot(f)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ntriples.LoadGraph(bufio.NewReaderSize(f, 1<<20))
}

// OpenSiteStore opens a per-site v3 block snapshot (SaveSiteSnapshots,
// mpc-partition -export-snapshots) as a query-ready store, memory-mapped
// in place: the heap holds only dictionaries, block directory and cache.
// Anything else — N-Triples, a v1/v2 whole-graph snapshot — is not a site
// and is refused; convert it by partitioning it. Close the returned store
// to release the mapping.
func OpenSiteStore(path string) (*store.Store, error) {
	if !strings.HasSuffix(path, SnapshotExt) {
		return nil, fmt.Errorf("dataio: %s: a site opens a %s block snapshot (mpc-partition -export-snapshots), not N-Triples", path, SnapshotExt)
	}
	v, err := store.SnapshotVersion(path)
	if err != nil {
		return nil, err
	}
	if v != store.BlockSnapshotVersion {
		return nil, fmt.Errorf("dataio: %s is a version-%d whole-graph snapshot; a site opens a version-%d block snapshot (mpc-partition -export-snapshots)",
			path, v, store.BlockSnapshotVersion)
	}
	return store.OpenSnapshot(path)
}

// SaveFile writes g to path, picking the format from the extension. The
// write is durable before SaveFile returns nil: Sync and Close errors are
// reported, not swallowed — on buffered filesystems a failed flush at
// close is the only notice that the data never hit the disk.
func SaveFile(path string, g *rdf.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeGraph(f, path, g); err != nil {
		f.Close()
		os.Remove(path) // don't leave a torn file behind
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("dataio: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dataio: close %s: %w", path, err)
	}
	return nil
}

// writeGraph writes the payload in the extension's format.
func writeGraph(f *os.File, path string, g *rdf.Graph) error {
	if strings.HasSuffix(path, SnapshotExt) {
		return rdf.WriteSnapshot(f, g)
	}
	w := ntriples.NewWriter(f)
	if err := w.WriteGraph(g); err != nil {
		return err
	}
	return w.Flush()
}

// SaveSiteSnapshots writes one v3 block snapshot per site of a partition
// layout, named <prefix>.site<i>.mpcg, each containing only that site's
// triples but the full shared dictionaries — so IDs stay comparable
// across sites and a site process loading its file answers with
// coordinator-compatible bindings. Sites are streamed one at a time:
// exporting k sites never materializes more than one site's sorted
// permutations, where the old path built a full subgraph copy per site
// and held its snapshot buffer alongside the source graph. Returns the
// paths written. On failure the files this call already wrote are
// removed, so a failed export never leaves a partial layout to serve.
func SaveSiteSnapshots(prefix string, layout interface {
	NumSites() int
	SiteTriples(i int) []int32
	Graph() *rdf.Graph
}) ([]string, error) {
	g := layout.Graph()
	paths := make([]string, layout.NumSites())
	for i := range paths {
		path := fmt.Sprintf("%s.site%d%s", prefix, i, SnapshotExt)
		if err := store.SaveBlockSnapshot(path, g, layout.SiteTriples(i)); err != nil {
			for _, written := range paths[:i] {
				os.Remove(written) // best effort: the export error is what the caller acts on
			}
			return nil, fmt.Errorf("dataio: site %d snapshot: %w", i, err)
		}
		paths[i] = path
	}
	return paths, nil
}
