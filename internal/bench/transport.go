package bench

import (
	"fmt"
	"io"

	"mpc/internal/cluster"
	"mpc/internal/obs"
	"mpc/internal/store"
	"mpc/internal/transport"
	"mpc/internal/workload"
)

// TransportCombo is one (dataset, strategy) combination executed over
// loopback TCP sites instead of direct store calls.
type TransportCombo struct {
	Dataset  string `json:"dataset"`
	Strategy string `json:"strategy"`
	// Identical reports whether every query's result table was
	// bit-identical (schema, flat data, row order) to the in-process
	// cluster's — the correctness gate of the transport.
	Identical bool `json:"identical"`
	// BytesShipped is the measured wire traffic of the whole workload,
	// requests plus responses (cluster Stats aggregate).
	BytesShipped int64 `json:"bytes_shipped"`
	// RPCs counts query round-trips; P50/P95 are their latency quantiles
	// from the transport.rpc_ns.query_batch histogram.
	RPCs     int64 `json:"rpcs"`
	RPCP50NS int64 `json:"rpc_p50_ns"`
	RPCP95NS int64 `json:"rpc_p95_ns"`
	// Retries and Timeouts count transport-level recoveries; both stay 0
	// on a healthy loopback run.
	Retries  int64 `json:"retries"`
	Timeouts int64 `json:"timeouts"`
}

// TransportSection is the "transport" block of BENCH_online.json: every
// online combination re-run over the wire, verified bit-identical, with
// measured traffic and RPC quantiles.
type TransportSection struct {
	Combos []TransportCombo `json:"combos"`
}

// loopbackCluster is the wire view of one built combination: the
// combination's own site stores behind loopback TCP servers, and a
// coordinator over transport clients of them sharing the combination's
// layout. Nothing is copied — both clusters answer from the same stores —
// so the only difference from bc.c is that subqueries cross a real socket.
// closeAll releases clients and servers.
func loopbackCluster(bc builtCluster, reg *obs.Registry) (remote *cluster.Cluster, closeAll func(), err error) {
	stores := make([]*store.Store, bc.c.NumSites())
	for i := range stores {
		stores[i] = bc.c.Site(i)
	}
	addrs, closeSites, err := transport.ServeLoopback(stores, nil)
	if err != nil {
		return nil, nil, err
	}
	clients, err := transport.Connect(addrs, transport.ClientOptions{Obs: reg})
	if err != nil {
		closeSites()
		return nil, nil, err
	}
	closeAll = func() {
		transport.CloseAll(clients)
		closeSites()
	}
	if err := transport.Verify(clients, bc.layout); err != nil {
		closeAll()
		return nil, nil, err
	}
	remote, err = cluster.NewWithSites(bc.layout, bc.crossing, cluster.Config{Obs: reg}, transport.Sites(clients))
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return remote, closeAll, nil
}

// runTransportCombo re-runs one online combination over loopback TCP with a
// fresh metrics registry: it executes the workload once and verifies each
// result table against the in-process cluster bit for bit.
func runTransportCombo(bc builtCluster, dataset string, queries []workload.NamedQuery) (TransportCombo, error) {
	combo := TransportCombo{Dataset: dataset, Strategy: bc.name, Identical: true}
	reg := obs.NewRegistry()
	remote, closeAll, err := loopbackCluster(bc, reg)
	if err != nil {
		return combo, err
	}
	defer closeAll()

	for _, nq := range queries {
		want, err := bc.c.Execute(nq.Query)
		if err != nil {
			return combo, fmt.Errorf("%s in-process: %w", nq.Name, err)
		}
		got, err := remote.Execute(nq.Query)
		if err != nil {
			return combo, fmt.Errorf("%s remote: %w", nq.Name, err)
		}
		combo.BytesShipped += got.Stats.BytesShipped
		if tableDigest(want) != tableDigest(got) {
			combo.Identical = false
		}
	}

	snap := reg.Snapshot()
	if h, ok := snap.Histograms["transport.rpc_ns.query_batch"]; ok {
		combo.RPCs = h.Count
		combo.RPCP50NS = h.P50
		combo.RPCP95NS = h.P95
	}
	combo.Retries = snap.Counters["transport.retries"]
	combo.Timeouts = snap.Counters["transport.timeouts"]
	return combo, nil
}

// tableDigest renders a result table in the bit-identical golden format
// used by the repository's determinism tests.
func tableDigest(res *cluster.Result) string {
	t := res.Table
	return fmt.Sprintf("%v|%v|%v|%d", t.Vars, t.Kinds, t.Data, t.Len())
}

// RenderTransport writes the human-readable transport table.
func RenderTransport(w io.Writer, ts *TransportSection) {
	var cells [][]string
	for _, c := range ts.Combos {
		cells = append(cells, []string{
			c.Dataset, c.Strategy, fmt.Sprint(c.Identical),
			fmt.Sprint(c.BytesShipped), fmt.Sprint(c.RPCs),
			fmt.Sprintf("%.1f", float64(c.RPCP50NS)/1e3),
			fmt.Sprintf("%.1f", float64(c.RPCP95NS)/1e3),
			fmt.Sprint(c.Retries), fmt.Sprint(c.Timeouts),
		})
	}
	WriteTable(w, "Transport: every combination over loopback TCP sites",
		[]string{"dataset", "strategy", "identical", "bytes", "rpcs", "rpc_p50_us", "rpc_p95_us", "retries", "timeouts"},
		cells)
}
