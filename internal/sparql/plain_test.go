package sparql_test

import (
	"math/rand"
	"testing"

	"mpc/internal/datagen"
	"mpc/internal/sparql"
	"mpc/internal/workload"
)

// TestClassifyPlainMatchesAllCrossing pins the fact a plain (star-only)
// cluster relies on when it localizes and narrows under sparql.AllCrossing:
// on every weakly connected query, ClassifyPlain calls a query independently
// executable exactly when Analyze does with every property crossing. (The
// class labels may differ; the IEQ verdict may not.)
func TestClassifyPlainMatchesAllCrossing(t *testing.T) {
	var qs []*sparql.Query
	lubm := datagen.LUBM{}.Generate(3000, 1)
	for _, nq := range workload.LUBMQueries(lubm, 1) {
		qs = append(qs, nq.Query)
	}
	watdiv := datagen.WatDiv{}.Generate(3000, 1)
	for _, nq := range workload.WatDivTemplates(watdiv, 1) {
		qs = append(qs, nq.Query)
	}
	rng := rand.New(rand.NewSource(1))
	o := sparql.RandOptions{
		MaxPatterns:    6,
		VertexConsts:   []string{"c0", "c1", "c2"},
		PropertyConsts: []string{"p", "q", "r", "s"},
	}
	for i := 0; i < 3000; i++ {
		qs = append(qs, sparql.RandomBGP(rng, o))
	}

	connected, ieq := 0, 0
	for _, q := range qs {
		if !q.IsWeaklyConnected() {
			continue
		}
		connected++
		plain := sparql.ClassifyPlain(q).IsIEQ()
		if all := sparql.Analyze(q, sparql.AllCrossing).Class; plain != all.IsIEQ() {
			t.Errorf("ClassifyPlain IEQ=%v but Analyze under AllCrossing says %v for\n%s", plain, all, q)
		}
		if plain {
			ieq++
		}
	}
	if connected < len(qs)/2 || ieq == 0 || ieq == connected {
		t.Fatalf("corpus too one-sided: %d queries, %d connected, %d IEQs", len(qs), connected, ieq)
	}
}
