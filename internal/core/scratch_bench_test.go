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

// smallTablePlan builds a step that reads a table of n members, as on
// power-law data where most signatures occur a few times: eight label-0
// hub vertices pairwise joined by edges {a, b} (the start table), and n
// arity-4 edges {hub, three label-1 vertices of their own} (the step
// table, TC's average arity). The query is the path {u0, u1}, {u1, u2, u3,
// u4}, so each expansion's one candidate set is the members holding
// either hub of the matched start edge. The graph is built under the
// small-table cutoff in force.
func smallTablePlan(tb testing.TB, n int) (*Plan, []hypergraph.EdgeID) {
	const hubs = 8
	b := hypergraph.NewBuilder()
	for i := 0; i < hubs; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < hubs; i++ {
		for j := i + 1; j < hubs; j++ {
			b.AddEdge(uint32(i), uint32(j))
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		y := uint32(b.NumVertices())
		for k := 0; k < 3; k++ {
			b.AddVertex(1)
		}
		b.AddEdge(uint32(rng.Intn(hubs)), y, y+1, y+2)
	}
	h := b.MustBuild()

	qb := hypergraph.NewBuilder()
	for _, l := range []hypergraph.Label{0, 0, 1, 1, 1} {
		qb.AddVertex(l)
	}
	qb.AddEdge(0, 1)
	qb.AddEdge(1, 2, 3, 4)
	p, err := NewPlanWithOrder(qb.MustBuild(), h, []hypergraph.EdgeID{0, 1})
	if err != nil {
		tb.Fatal(err)
	}
	if p.steps[1].part.Len() != n {
		tb.Fatalf("step table holds %d edges, want %d", p.steps[1].part.Len(), n)
	}
	return p, p.InitialCandidates()
}

// BenchmarkSmallTableScan times one Expand on a step table of n members
// by Algorithm 4 over the table's inverted index (Index: every table
// indexed) and by scanning its members (Scan). It picks SmallTableMax
// (internal/hypergraph), the largest n whose table carries no index.
// Medians [quartiles] of ten runs at 300000x on a 2-core Xeon (Linux
// 6.18, go1.24.0), ns/op:
//
//	n        1              2              3              4              6              8              12             16
//	Index  126 [103, 132]  120 [102, 134]  149 [130, 164]  175 [119, 199]  224 [196, 237]  227 [201, 255]  247 [221, 296]  311 [248, 339]
//	Scan   124 [121, 126]  130 [120, 160]  175 [149, 201]  199 [171, 220]  253 [223, 277]  339 [288, 373]  454 [354, 458]  523 [480, 564]
//
// Up to six members the two arms' quartile ranges overlap; from eight on
// the scan is slower at every quartile. An index on a table of n members
// costs about three times its edges' vertex cells, so SmallTableMax is 4,
// short of where the scan starts to lose.
func BenchmarkSmallTableScan(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		for _, mode := range []struct {
			name    string
			scanMax int
		}{{"Index", 0}, {"Scan", 16}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				defer hypergraph.ForceScanMax(mode.scanMax)()
				p, first := smallTablePlan(b, n)
				if p.steps[1].scanBase != (mode.scanMax > 0) {
					b.Fatalf("%s arm: step scans its base %v", mode.name, p.steps[1].scanBase)
				}
				sc := NewScratch()
				m := make([]hypergraph.EdgeID, p.NumSteps())
				var ct Counters
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m[0] = first[i%len(first)]
					p.Expand(1, m, sc, &ct, nil)
				}
			})
		}
	}
}
