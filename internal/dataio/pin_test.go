package dataio

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
)

// TestSiteSnapshotBytesPinned pins the exact bytes of exported site
// snapshots: small seeded LUBM and DBpedia-like graphs, partitioned by MPC
// at k = 4, one hash per site file. Any change to the selected L_in, the
// layout or the block encoder that moves a single byte fails here.
func TestSiteSnapshotBytesPinned(t *testing.T) {
	want := map[string][]string{
		"LUBM":    {"313c217604808406", "26268a88a504c985", "6257fcb01757d43b", "bfb370e13d10e29e"},
		"DBpedia": {"9083767a69ee3887", "825b38c52778328d", "c2040723e7271fae", "267e5cc7785a698f"},
	}
	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.DBpedia{}} {
		g := gen.Generate(20000, 1)
		res, err := (core.MPC{}).PartitionFull(g, partition.Options{K: 4, Epsilon: 0.1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		paths, err := SaveSiteSnapshots(filepath.Join(t.TempDir(), "part"), res.Partitioning)
		if err != nil {
			t.Fatalf("%s: %v", gen.Name(), err)
		}
		var got []string
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got = append(got, hex.EncodeToString(sum[:8]))
		}
		if !reflect.DeepEqual(got, want[gen.Name()]) {
			t.Errorf("%s: site snapshot hashes %q, want %q", gen.Name(), got, want[gen.Name()])
		}
	}
}
