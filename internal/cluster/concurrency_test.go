package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpc/internal/core"
	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/sparql"
	"mpc/internal/store"
	"mpc/internal/workload"
)

// goldenDigest renders a result in the repository's bit-identical golden
// format: schema, kinds, flat data, row count.
func goldenDigest(name string, res *Result) string {
	return fmt.Sprintf("%s|%v|%v|%v|%d",
		name, res.Table.Vars, res.Table.Kinds, res.Table.Data, res.Table.Len())
}

// TestConcurrentExecuteBitIdentical runs many parallel Execute calls on one
// shared cluster (race-detector coverage for the whole plan/execute path)
// and asserts every answer is bit-identical to the serial answer — same
// schema, same flat data, same row order.
func TestConcurrentExecuteBitIdentical(t *testing.T) {
	g := datagen.LUBM{}.Generate(10000, 1)
	queries := workload.LUBMQueries(g, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 3, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{Semijoin: true})
	if err != nil {
		t.Fatal(err)
	}

	serial := make(map[string]string, len(queries))
	for _, nq := range queries {
		res, err := c.Execute(nq.Query)
		if err != nil {
			t.Fatalf("serial %s: %v", nq.Name, err)
		}
		serial[nq.Name] = goldenDigest(nq.Name, res)
	}

	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				nq := queries[(w+r)%len(queries)]
				res, err := c.Execute(nq.Query)
				if err != nil {
					t.Errorf("worker %d %s: %v", w, nq.Name, err)
					return
				}
				if got := goldenDigest(nq.Name, res); got != serial[nq.Name] {
					t.Errorf("worker %d: %s diverged from the serial answer", w, nq.Name)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSharedPlanConcurrentExecute executes one Plan object from many
// goroutines at once: plans must be reusable and immutable under
// concurrency.
func TestSharedPlanConcurrentExecute(t *testing.T) {
	g := datagen.LUBM{}.Generate(6000, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 3, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.LUBMQueries(g, 1)[0]
	plan := c.Plan(q.Query)
	want, err := c.ExecutePlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	wantD := goldenDigest(q.Name, want)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := c.ExecutePlan(context.Background(), plan)
				if err != nil {
					t.Error(err)
					return
				}
				if goldenDigest(q.Name, res) != wantD {
					t.Error("shared plan produced a divergent answer")
				}
			}
		}()
	}
	wg.Wait()
}

// stallSite blocks every ExecuteSub until its context dies, modeling a
// remote site that never answers.
type stallSite struct{ entered chan struct{} }

func (s stallSite) ExecuteSub(ctx context.Context, _ *sparql.Query, _ SubOpts) (*store.Table, SubStats, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, SubStats{}, ctx.Err()
}

// TestCancelledExecuteReturnsPromptly pins the cancellation contract: a
// query blocked on per-site work must return ctx.Err() promptly after
// cancel and leave no goroutines behind.
func TestCancelledExecuteReturnsPromptly(t *testing.T) {
	g := datagen.LUBM{}.Generate(2000, 1)
	layout, err := (partition.SubjectHash{}).Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 16)
	sites := make([]Site, layout.NumSites())
	for i := range sites {
		sites[i] = stallSite{entered: entered}
	}
	c, err := NewWithSites(layout, nil, Config{}, sites)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	q := sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y }`)
	done := make(chan error, 1)
	go func() {
		_, err := c.ExecuteCtx(ctx, q)
		done <- err
	}()

	<-entered // the query reached a site and is parked there
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Execute returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Execute did not return promptly")
	}

	// The per-site goroutines unblock on ctx.Done; give the runtime a
	// moment to reap them, then insist the count settled back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancel: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), truncateStack(string(buf[:n])))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// truncateStack keeps goroutine dumps readable in failure output.
func truncateStack(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + "\n... (truncated)"
}

// TestCancelBeforeExecute checks the entry gate: an already-dead context
// never reaches a site.
func TestCancelBeforeExecute(t *testing.T) {
	g := datagen.LUBM{}.Generate(2000, 1)
	p, err := (core.MPC{}).Partition(g, partition.Options{K: 2, Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewFromPartitioning(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := sparql.MustParse(`SELECT ?x ?y WHERE { ?x <http://lubm.example.org/univ#advisor> ?y }`)
	if _, err := c.ExecuteCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-ctx Execute returned %v, want context.Canceled", err)
	}
}
