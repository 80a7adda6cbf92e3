package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hgmatch/internal/hypergraph"
)

// scratchBenchPlan builds a workload whose vertex-table accesses are spread
// over the whole graph, as on a large sparse dataset: nv vertices of one
// label under a random permutation of IDs, data hyperedges of arity 4 over
// consecutive (pre-permutation) vertices, and a 3-edge connected query, so
// successive Expand calls write and probe the table at scattered IDs.
func scratchBenchPlan(tb testing.TB, nv int) (*Plan, []hypergraph.EdgeID) {
	b := hypergraph.NewBuilder()
	for i := 0; i < nv; i++ {
		b.AddVertex(0)
	}
	id := rand.New(rand.NewSource(1)).Perm(nv)
	// Overlapping 4-vertex edges: edge i covers {i, i+1, i+2, i+3} mod nv.
	for i := 0; i < nv; i++ {
		b.AddEdge(uint32(id[i]), uint32(id[(i+1)%nv]), uint32(id[(i+2)%nv]), uint32(id[(i+3)%nv]))
	}
	h := b.MustBuild()

	qb := hypergraph.NewBuilder()
	for i := 0; i < 6; i++ {
		qb.AddVertex(0)
	}
	qb.AddEdge(0, 1, 2, 3)
	qb.AddEdge(1, 2, 3, 4)
	qb.AddEdge(2, 3, 4, 5)
	q := qb.MustBuild()

	p, err := NewPlan(q, h)
	if err != nil {
		tb.Fatal(err)
	}
	first := p.InitialCandidates()
	if len(first) == 0 {
		tb.Fatal("no initial candidates")
	}
	return p, first
}

// BenchmarkScratchVcnt isolates the vertex-table choice (dense slices
// indexed by vertex ID vs the compact open-addressing table over the
// partial embedding) on the same Expand workload, cycling the first
// hyperedge over the whole graph, at growing vertex counts. Medians of
// seven alternating runs at 500000x on a 2-core Xeon 2.1 GHz (go1.24.0),
// ns/op, with the quartiles of the sizes where the arms meet:
//
//	|V|      2^12  2^14  2^16              2^17              2^18              2^20
//	Dense     811   887  1082 [1038, 1207]  1256 [1202, 1328]  1303 [1280, 1378]  1757 [1710, 1962]
//	Compact   915  1001  1058 [1023, 1210]  1307 [1192, 1354]  1457 [1247, 1504]  1765 [1635, 1773]
//
// Below 2^16 the compact table's probes cost about 13 % of an Expand. From
// 2^16 on the two arms' quartile ranges overlap at every size, while a
// dense table costs 12 B per vertex for each worker and depth, so
// denseVcntMax is 2^16.
func BenchmarkScratchVcnt(b *testing.B) {
	for _, lg := range []int{12, 14, 16, 17, 18, 20} {
		p, first := scratchBenchPlan(b, 1<<lg)
		for _, mode := range []struct {
			name     string
			denseMax int
		}{{"Dense", math.MaxInt}, {"Compact", -1}} {
			b.Run(fmt.Sprintf("V=2^%d/%s", lg, mode.name), func(b *testing.B) {
				sc := &Scratch{denseMax: mode.denseMax}
				m := make([]hypergraph.EdgeID, p.NumSteps())
				var ct Counters
				emit := func(hypergraph.EdgeID) {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m[0] = first[i%len(first)]
					p.Expand(1, m, sc, &ct, emit)
				}
			})
		}
	}
}
