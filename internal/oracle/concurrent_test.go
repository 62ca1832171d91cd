package oracle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mpc/internal/cluster"
	"mpc/internal/datagen"
	"mpc/internal/sparql"
)

// concurrentGolden renders a result in the bit-identical golden format.
func concurrentGolden(res *cluster.Result) string {
	t := res.Table
	return fmt.Sprintf("%v|%v|%v|%d", t.Vars, t.Kinds, t.Data, t.Len())
}

// TestConcurrentMatchesSerial is the concurrency gate of the differential
// harness: for every strategy × partitioner × transport combination in the
// corpus environment (including the loopback-TCP path), parallel Execute
// calls on the shared cluster must return answers bit-identical to the
// serial answers for the same queries.
func TestConcurrentMatchesSerial(t *testing.T) {
	graphs := graphConfigs[:2]
	if testing.Short() {
		graphs = graphConfigs[:1]
	}
	for gi, gc := range graphs {
		g := datagen.Random{V: gc.v, P: gc.p, Skew: gc.skew}.Generate(gc.triples, int64(100+gi))
		env, err := NewEnv(g, Options{TCP: true, Broadcast: true})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}

		rng := rand.New(rand.NewSource(int64(3000 + gi)))
		var queries []*sparql.Query
		for qi := 0; qi < 10; qi++ {
			o := queryOptions(3)
			o.Disconnected = qi%4 == 0
			queries = append(queries, sparql.RandomBGP(rng, o))
		}

		for _, cb := range env.combos {
			cb := cb
			t.Run(fmt.Sprintf("graph%d/%s", gi, cb.name), func(t *testing.T) {
				exec := func(q *sparql.Query) (*cluster.Result, error) {
					if cb.partial {
						if len(q.Patterns) > cluster.MaxPartialEvalEdges {
							return nil, nil
						}
						return cb.c.ExecutePartialEval(q)
					}
					return cb.c.Execute(q)
				}

				serial := make([]string, len(queries))
				for i, q := range queries {
					res, err := exec(q)
					if err != nil {
						t.Fatalf("serial query %d:\n%s\n%v", i, q, err)
					}
					if res == nil {
						serial[i] = "" // over the partial-eval edge budget
						continue
					}
					serial[i] = concurrentGolden(res)
				}

				const workers = 6
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := range queries {
							qi := (i + w) % len(queries)
							if serial[qi] == "" {
								continue
							}
							res, err := exec(queries[qi])
							if err != nil {
								t.Errorf("worker %d query %d: %v", w, qi, err)
								return
							}
							if concurrentGolden(res) != serial[qi] {
								t.Errorf("worker %d: query %d diverged from serial:\n%s",
									w, qi, queries[qi])
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
		env.Close()
	}
}
