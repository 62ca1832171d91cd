// Command mpc-site runs one site of an MPC cluster as its own process: a
// TCP server (internal/transport) that holds one partition's triple store
// and evaluates the subqueries a coordinator (mpc-query -sites,
// mpc-server -sites) sends it.
//
// A site is a store: it serves the per-site snapshot it is started with,
// memory-mapped, and nothing else. The bring-up of a cluster is
//
//	mpc-partition -in lubm.nt -out parts/ -k 4 -export-snapshots
//	mpc-site -listen :7070 -snapshot parts/part.site0.mpcg      # one per site
//	mpc-query -in lubm.nt -assign parts/assignment.txt -sites :7070,... -query ...
//
// The snapshots carry the full shared dictionaries, so bindings stay
// comparable across sites; the coordinator must load the same input and
// layout the snapshots were exported from, and checks so when it connects.
//
// On SIGINT/SIGTERM the site drains: it stops accepting work, finishes
// in-flight requests (bounded by -drain-timeout), then exits.
//
// Observability: -obs-listen ADDR serves /debug/metrics (bytes in/out,
// per-message-type latency histograms) and /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpc/internal/dataio"
	"mpc/internal/obs"
	"mpc/internal/transport"
)

func main() {
	listen := flag.String("listen", ":7070", "address to listen on")
	snapshotPath := flag.String("snapshot", "", "per-site block snapshot to serve (part.site<i>.mpcg from mpc-partition -export-snapshots; required)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	obsListen := flag.String("obs-listen", "", "serve /debug/metrics and /debug/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *snapshotPath == "" {
		fmt.Fprintln(os.Stderr, "mpc-site: -snapshot is required: a site serves the snapshot mpc-partition -export-snapshots wrote for it")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*listen, *snapshotPath, *drainTimeout, *obsListen); err != nil {
		fmt.Fprintln(os.Stderr, "mpc-site:", err)
		os.Exit(1)
	}
}

func run(listen, snapshotPath string, drainTimeout time.Duration, obsListen string) error {
	reg := obs.NewRegistry()
	if obsListen != "" {
		_, addr, err := reg.Serve(obsListen)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[metrics at http://%s/debug/metrics, profiles at http://%s/debug/pprof/]\n", addr, addr)
	}

	st, err := dataio.OpenSiteStore(snapshotPath)
	if err != nil {
		return err
	}
	defer st.Close()
	st.Instrument(reg)
	fmt.Fprintf(os.Stderr, "serving mapped block snapshot: %d triples, %d vertices, %d properties\n",
		st.NumTriples(), st.Graph().NumVertices(), st.Graph().NumProperties())

	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	srv := transport.NewServer(transport.ServerOptions{Store: st, Obs: reg})
	fmt.Fprintf(os.Stderr, "listening on %s\n", l.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "%v: draining (up to %v)\n", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return <-errCh
	}
}
