package core

import (
	"strconv"
	"testing"

	"mpc/internal/datagen"
	"mpc/internal/partition"
	"mpc/internal/rdf"
)

// selectSink keeps the benchmarked selection from being optimized away.
var selectSink []rdf.PropertyID

// BenchmarkGreedySelect times Alg. 1 on a DBpedia-like graph, whose
// thousands of properties mean thousands of selection rounds, at one and
// two workers.
func BenchmarkGreedySelect(b *testing.B) {
	g := datagen.DBpedia{}.Generate(100000, 1)
	cap := partition.Options{K: 8, Epsilon: 0.1}.Cap(g.NumVertices())
	for _, w := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			sel := GreedySelector{Workers: w}
			for i := 0; i < b.N; i++ {
				selectSink = sel.SelectInternal(g, cap)
			}
		})
	}
}
