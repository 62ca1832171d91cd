package transport

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/workload"
)

// remoteCluster builds the layout's site stores, puts each behind its own
// loopback TCP server, and builds a coordinator on clients of them. The
// network is real; only the processes are shared.
func remoteCluster(t *testing.T, layout partition.SiteLayout, crossing sparql.CrossingTest,
	cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	stores := make([]*store.Store, layout.NumSites())
	for i := range stores {
		stores[i] = store.New(layout.Graph(), layout.SiteTriples(i))
	}
	addrs, closeSites, err := ServeLoopback(stores, cfg.Obs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeSites)
	clients, err := Connect(addrs, ClientOptions{Obs: cfg.Obs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseAll(clients) })
	if err := Verify(clients, layout); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewWithSites(layout, crossing, cfg, Sites(clients))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// workloadDigest runs every query and renders the result tables — schema,
// flat data, row order — so equal digests mean bit-identical answers.
func workloadDigest(t *testing.T, c *cluster.Cluster, queries []workload.NamedQuery) string {
	t.Helper()
	var sb strings.Builder
	for _, q := range queries {
		res, err := c.Execute(q.Query)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		fmt.Fprintf(&sb, "%s|%v|%v|%v|%d\n",
			q.Name, res.Table.Vars, res.Table.Kinds, res.Table.Data, res.Table.Len())
	}
	return sb.String()
}

// TestLoopbackBitIdentical is the transport's end-to-end guarantee: for
// the LUBM and WatDiv workloads, a cluster of network sites must return
// tables bit-identical — same schema, same flat data, same row order — to
// the in-process goroutine cluster, across all three execution modes.
func TestLoopbackBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e skipped in -short mode")
	}
	const triples = 15000
	opts := partition.Options{K: 4, Epsilon: 0.15, Seed: 1}

	for _, gen := range []datagen.Generator{datagen.LUBM{}, datagen.WatDiv{}} {
		gen := gen
		t.Run(gen.Name(), func(t *testing.T) {
			g := gen.Generate(triples, 1)
			var queries []workload.NamedQuery
			if gen.Name() == "LUBM" {
				queries = workload.LUBMQueries(g, 1)
			} else {
				queries = workload.WatDivLog(g, 25, 1)
			}

			p, err := (core.MPC{}).Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			crossing := p.CrossingTest()
			hp, err := (partition.SubjectHash{}).Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			vl, err := (partition.VP{}).Partition(g, opts)
			if err != nil {
				t.Fatal(err)
			}

			type setup struct {
				name     string
				layout   partition.SiteLayout
				crossing sparql.CrossingTest
				cfg      cluster.Config
			}
			setups := []setup{
				{"crossing-aware", p, crossing, cluster.Config{}},
				{"star-only+semijoin", hp, nil, cluster.Config{Semijoin: true}},
				{"vp", vl, nil, cluster.Config{}},
			}

			for _, s := range setups {
				s := s
				t.Run(s.name, func(t *testing.T) {
					local, err := cluster.New(s.layout, s.crossing, s.cfg)
					if err != nil {
						t.Fatal(err)
					}
					remote := remoteCluster(t, s.layout, s.crossing, s.cfg)

					want := workloadDigest(t, local, queries)
					got := workloadDigest(t, remote, queries)
					if want != got {
						t.Errorf("remote execution differs from in-process execution")
					}

					// Remote stats must carry measured wire traffic.
					for _, q := range queries {
						res, err := remote.Execute(q.Query)
						if err != nil {
							t.Fatal(err)
						}
						if res.Stats.BytesShipped <= 0 {
							t.Fatalf("%s: remote cluster reported no bytes shipped", q.Name)
						}
						break // one query suffices for the stats shape
					}
				})
			}
		})
	}
}

// TestSiteRestartSameSnapshot is the restartable-site precondition: a site
// process that dies mid-session and comes back serving the same snapshot
// on the same address is, to the coordinator, the same site — the client's
// reconnect path finds it and every answer is digest-identical.
func TestSiteRestartSameSnapshot(t *testing.T) {
	g := datagen.LUBM{}.Generate(5000, 1)
	queries := workload.LUBMQueries(g, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 3, Epsilon: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	crossing := p.CrossingTest()

	// open serves site i's snapshot on addr and returns what stops it.
	dir := t.TempDir()
	open := func(i int, addr string) (string, func()) {
		t.Helper()
		path := filepath.Join(dir, fmt.Sprintf("site%d.mpcg", i))
		st, err := store.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		srv, bound, wait, err := startSite(addr, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		return bound, func() {
			srv.Close()
			<-wait
			st.Close()
		}
	}
	addrs := make([]string, p.NumSites())
	stops := make([]func(), p.NumSites())
	for i := range addrs {
		path := filepath.Join(dir, fmt.Sprintf("site%d.mpcg", i))
		if err := store.SaveBlockSnapshot(path, g, p.SiteTriples(i)); err != nil {
			t.Fatal(err)
		}
		addrs[i], stops[i] = open(i, "127.0.0.1:0")
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	reg := obs.NewRegistry()
	clients, err := Connect(addrs, ClientOptions{RetryBackoff: 5 * time.Millisecond, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(clients)
	if err := Verify(clients, p); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewWithSites(p, crossing, cluster.Config{}, Sites(clients))
	if err != nil {
		t.Fatal(err)
	}
	before := workloadDigest(t, c, queries)
	dialsBefore := reg.Snapshot().Counters["transport.dials"]

	// Site 1 dies and restarts from its snapshot on the same address.
	stops[1]()
	_, stops[1] = open(1, addrs[1])

	if after := workloadDigest(t, c, queries); after != before {
		t.Fatal("answers changed across the site restart")
	}
	if reg.Snapshot().Counters["transport.dials"] == dialsBefore {
		t.Fatal("no new connection was dialed: the restart was not exercised")
	}
}
