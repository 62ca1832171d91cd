package bench

import (
	"bytes"
	"testing"
)

// TestRunOnlineTransport checks the online experiment's transport section:
// every combination re-run over loopback TCP sites must be bit-identical
// to the in-process cluster, with nonzero measured traffic.
func TestRunOnlineTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("transport online runner skipped in -short mode")
	}
	res, err := RunOnline(Config{Triples: 3000, K: 2, LogQueries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transport.Combos) != len(res.Combos) {
		t.Fatalf("transport combos %d, online combos %d", len(res.Transport.Combos), len(res.Combos))
	}
	for _, tc := range res.Transport.Combos {
		if !tc.Identical {
			t.Errorf("%s/%s: remote results not bit-identical to in-process", tc.Dataset, tc.Strategy)
		}
		if tc.BytesShipped <= 0 {
			t.Errorf("%s/%s: no bytes shipped recorded", tc.Dataset, tc.Strategy)
		}
		if tc.RPCs <= 0 || tc.RPCP95NS < tc.RPCP50NS {
			t.Errorf("%s/%s: rpc stats rpcs=%d p50=%d p95=%d",
				tc.Dataset, tc.Strategy, tc.RPCs, tc.RPCP50NS, tc.RPCP95NS)
		}
	}

	var buf bytes.Buffer
	RenderTransport(&buf, &res.Transport)
	if buf.Len() == 0 {
		t.Fatal("RenderTransport wrote nothing")
	}
}
