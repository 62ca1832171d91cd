package transport

import (
	"fmt"
	"net"

	"mpc/internal/cluster"
	"mpc/internal/obs"
	"mpc/internal/partition"
	"mpc/internal/store"
)

// Connect dials one client per site address. On any failure it closes the
// clients already opened and returns the error.
func Connect(addrs []string, opts ClientOptions) ([]*Client, error) {
	clients := make([]*Client, 0, len(addrs))
	for _, addr := range addrs {
		c, err := Dial(addr, opts)
		if err != nil {
			CloseAll(clients)
			return nil, fmt.Errorf("transport: site %s: %w", addr, err)
		}
		clients = append(clients, c)
	}
	return clients, nil
}

// Verify checks that every site serves the partition the coordinator's
// layout expects: site i must hold exactly len(layout.SiteTriples(i))
// triples and dictionaries the size of the coordinator graph's. Sites are
// opened from snapshots exported by one partitioning run; a coordinator
// started with a different seed, k, strategy or input than that run would
// otherwise connect fine and return wrong rows. len(clients) must equal
// layout.NumSites().
func Verify(clients []*Client, layout partition.SiteLayout) error {
	if len(clients) != layout.NumSites() {
		return fmt.Errorf("transport: %d clients for a %d-partition layout",
			len(clients), layout.NumSites())
	}
	g := layout.Graph()
	for i, c := range clients {
		got, err := c.Ping()
		if err != nil {
			return fmt.Errorf("transport: site %d (%s): %w", i, c.Addr(), err)
		}
		want := SiteInfo{
			Triples:    len(layout.SiteTriples(i)),
			Vertices:   g.NumVertices(),
			Properties: g.NumProperties(),
		}
		if got != want {
			return fmt.Errorf("transport: site %d (%s) serves %+v, the coordinator's layout expects %+v: "+
				"was its snapshot exported with this input, k, seed and strategy?", i, c.Addr(), got, want)
		}
	}
	return nil
}

// startSite serves st on addr (":0" picks a port) and returns the server
// with its bound address; wait receives Serve's result once it returns.
func startSite(addr string, st *store.Store, reg *obs.Registry) (srv *Server, bound string, wait <-chan error, err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, err
	}
	srv = NewServer(ServerOptions{Store: st, Obs: reg})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return srv, l.Addr().String(), done, nil
}

// ServeLoopback puts each store behind its own server on an ephemeral
// loopback TCP port — a whole cluster's sites inside one process, over the
// real wire protocol. It returns the site addresses, in store order, and a
// closer that kills every server and waits for its accept loop. The stores
// stay the caller's to close.
func ServeLoopback(stores []*store.Store, reg *obs.Registry) (addrs []string, closeAll func(), err error) {
	var servers []*Server
	var waits []<-chan error
	closeAll = func() {
		for i, srv := range servers {
			srv.Close()
			<-waits[i]
		}
	}
	for _, st := range stores {
		srv, addr, wait, err := startSite("127.0.0.1:0", st, reg)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		servers, waits, addrs = append(servers, srv), append(waits, wait), append(addrs, addr)
	}
	return addrs, closeAll, nil
}

// Sites adapts clients to the cluster.Site slice NewWithSites expects.
func Sites(clients []*Client) []cluster.Site {
	sites := make([]cluster.Site, len(clients))
	for i, c := range clients {
		sites[i] = c
	}
	return sites
}

// CloseAll closes every client.
func CloseAll(clients []*Client) {
	for _, c := range clients {
		c.Close()
	}
}
