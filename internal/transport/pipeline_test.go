package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpc/internal/cluster"
	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/workload"
)

// TestPipelinedOutOfOrderResponses is the demultiplexing contract: two
// requests share one connection, the server answers them in reverse order,
// and each caller must still receive its own payload (correlated by reqID,
// not arrival order).
func TestPipelinedOutOfOrderResponses(t *testing.T) {
	addr := stubServer(t, func(conn net.Conn, br *bufio.Reader) {
		// Read both in-flight requests before answering either, then echo
		// the payloads back last-in-first-out.
		a, _, err := readFrame(br)
		if err != nil {
			return
		}
		b, _, err := readFrame(br)
		if err != nil {
			return
		}
		writeFrame(conn, MsgOK, b.reqID, b.payload)
		writeFrame(conn, MsgOK, a.reqID, a.payload)
	})
	c := NewClient(addr, ClientOptions{MaxConns: 1, RequestTimeout: 5 * time.Second})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("req-%d", i))
			resp, _, err := c.call(context.Background(), MsgPing, payload, 5*time.Second)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if !bytes.Equal(resp.payload, payload) {
				t.Errorf("request %d got payload %q, want %q", i, resp.payload, payload)
			}
		}(i)
	}
	wg.Wait()
}

// TestPipelineSharesConnections caps dial storms: N concurrent requests
// against one site must open at most MaxConns sockets, not N.
func TestPipelineSharesConnections(t *testing.T) {
	var conns atomic.Int64
	addr := stubServer(t, func(conn net.Conn, br *bufio.Reader) {
		conns.Add(1)
		for {
			req, _, err := readFrame(br)
			if err != nil {
				return
			}
			// A small service delay keeps many requests in flight at once.
			time.Sleep(5 * time.Millisecond)
			if _, err := writeFrame(conn, MsgOK, req.reqID, pong); err != nil {
				return
			}
		}
	})
	const maxConns, requests = 2, 16
	c := NewClient(addr, ClientOptions{MaxConns: maxConns, RequestTimeout: 10 * time.Second})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Ping(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := conns.Load(); n > maxConns {
		t.Fatalf("%d concurrent requests opened %d connections, want <= %d", requests, n, maxConns)
	}
}

// TestAbandonedRequestKeepsConnection pins the per-request deadline
// semantics of the mux: a timed-out request abandons only itself — the
// connection survives and keeps serving later requests, and the late
// response is dropped by the demux loop.
func TestAbandonedRequestKeepsConnection(t *testing.T) {
	var conns atomic.Int64
	release := make(chan struct{})
	defer close(release)
	addr := stubServer(t, func(conn net.Conn, br *bufio.Reader) {
		conns.Add(1)
		first := true
		for {
			req, _, err := readFrame(br)
			if err != nil {
				return
			}
			if first {
				first = false
				// Hold the first answer back until the test ends: its
				// caller times out and abandons the request.
				go func(id uint64) {
					<-release
					writeFrame(conn, MsgOK, id, pong)
				}(req.reqID)
				continue
			}
			writeFrame(conn, MsgOK, req.reqID, pong)
		}
	})
	c := NewClient(addr, ClientOptions{
		MaxConns:       1,
		MaxRetries:     1,
		RequestTimeout: 50 * time.Millisecond,
	})
	defer c.Close()

	if _, err := c.Ping(); err == nil {
		t.Fatal("wedged first request should have timed out")
	}
	// The same (sole) connection must answer the follow-up.
	if _, err := c.Ping(); err != nil {
		t.Fatalf("follow-up request on the surviving connection failed: %v", err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("client used %d connections, want 1 (timeout must not poison the conn)", n)
	}
}

// TestLoopbackConcurrentBitIdentical runs many parallel Execute calls on a
// shared cluster whose sites live behind real loopback TCP — the pipelined
// transport under concurrency — and asserts every answer is bit-identical
// to the serial answer.
func TestLoopbackConcurrentBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback e2e skipped in -short mode")
	}
	g := datagen.LUBM{}.Generate(8000, 1)
	queries := workload.LUBMQueries(g, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 3, Epsilon: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	crossing := p.CrossingTest()
	remote := remoteCluster(t, p, crossing, cluster.Config{})

	serial := make(map[string]string, len(queries))
	for _, nq := range queries {
		res, err := remote.Execute(nq.Query)
		if err != nil {
			t.Fatalf("serial %s: %v", nq.Name, err)
		}
		serial[nq.Name] = tableGolden(nq.Name, res)
	}

	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				nq := queries[(w+r)%len(queries)]
				res, err := remote.Execute(nq.Query)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, nq.Name, err)
					return
				}
				if tableGolden(nq.Name, res) != serial[nq.Name] {
					t.Errorf("worker %d: %s diverged over loopback TCP", w, nq.Name)
				}
			}
		}(w)
	}
	wg.Wait()
}

// tableGolden renders a result in the bit-identical golden format.
func tableGolden(name string, res *cluster.Result) string {
	return fmt.Sprintf("%s|%v|%v|%v|%d",
		name, res.Table.Vars, res.Table.Kinds, res.Table.Data, res.Table.Len())
}
