package hgmatch_test

import (
	"fmt"
	"sort"

	"hgmatch"
)

// exampleFig1 builds the running example of the paper's Fig. 1: data
// hypergraph H (1b) and query hypergraph q (1a). Labels: 0=A, 1=B, 2=C.
func exampleFig1() (query, data *hgmatch.Hypergraph) {
	data, _ = hgmatch.FromEdges(
		[]hgmatch.Label{0, 2, 0, 0, 1, 2, 0},
		[][]uint32{{2, 4}, {4, 6}, {0, 1, 2}, {3, 5, 6}, {0, 1, 4, 6}, {2, 3, 4, 5}},
	)
	query, _ = hgmatch.FromEdges(
		[]hgmatch.Label{0, 2, 0, 0, 1},
		[][]uint32{{2, 4}, {0, 1, 2}, {0, 1, 3, 4}},
	)
	return query, data
}

// ExampleMatch finds all embeddings of the Fig. 1 query in the Fig. 1 data
// hypergraph and streams each one through a callback.
func ExampleMatch() {
	query, data := exampleFig1()

	var found [][]hgmatch.EdgeID
	res, err := hgmatch.Match(query, data,
		hgmatch.WithWorkers(2),
		hgmatch.WithCallback(func(m []hgmatch.EdgeID) {
			// The tuple is reused between calls; copy to retain.
			found = append(found, append([]hgmatch.EdgeID(nil), m...))
		}),
	)
	if err != nil {
		panic(err)
	}

	// Workers race, so sort before printing.
	sort.Slice(found, func(i, j int) bool { return found[i][0] < found[j][0] })
	fmt.Println("embeddings:", res.Embeddings)
	for _, m := range found {
		fmt.Println(m)
	}
	// Output:
	// embeddings: 2
	// [0 2 4]
	// [1 3 5]
}

// ExampleCompile compiles a plan once and reuses it for several runs — the
// pattern behind both batch experiments and the hgserve plan cache.
func ExampleCompile() {
	query, data := exampleFig1()

	plan, err := hgmatch.Compile(query, data)
	if err != nil {
		panic(err)
	}
	fmt.Println("order:", plan.Order())
	fmt.Println(plan.Explain())

	all := plan.Run(hgmatch.WithWorkers(1))
	first := plan.Run(hgmatch.WithWorkers(1), hgmatch.WithLimit(1))
	fmt.Println("all:", all.Embeddings, "limited:", first.Embeddings)
	// Output:
	// order: [0 1 2]
	// SCAN({u2,u4}) -> EXPAND({u0,u1,u2}) -> EXPAND({u0,u1,u3,u4}) -> SINK
	// all: 2 limited: 1
}

// ExampleBuilder assembles a hypergraph programmatically.
func ExampleBuilder() {
	b := hgmatch.NewBuilder()
	v0 := b.AddVertex(0) // label 0
	v1 := b.AddVertex(1) // label 1
	v2 := b.AddVertex(0)
	b.AddEdge(v0, v1)
	b.AddEdge(v1, v2)

	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println(h.NumVertices(), h.NumEdges())
	fmt.Println(h)
	// Output:
	// 3 2
	// Hypergraph{V=3 E=2 Σ=2 amax=2 a=2.0 partitions=1}
}

// ExampleDeltaBuffer_Insert grows a data hypergraph online: matching
// always runs on an immutable snapshot, inserts become visible with the
// next snapshot, and Compact folds the delta into a fresh base without
// changing any result.
func ExampleDeltaBuffer_Insert() {
	// Data: three vertices labelled A, A, B and one (A,B) hyperedge.
	// Query: a single (A,B) hyperedge.
	data, _ := hgmatch.FromEdges([]hgmatch.Label{0, 0, 1}, [][]uint32{{0, 2}})
	query, _ := hgmatch.FromEdges([]hgmatch.Label{0, 1}, [][]uint32{{0, 1}})

	live, _ := hgmatch.NewDeltaBuffer(data)
	before, _ := hgmatch.Count(query, live.Snapshot())

	// Vertex 1 (A) and vertex 2 (B) gain an edge of the same signature:
	// a second embedding appears online, no rebuild, no restart.
	if _, added, err := live.Insert(1, 2); err != nil || !added {
		panic("insert failed")
	}
	after, _ := hgmatch.Count(query, live.Snapshot())

	compacted, _ := live.Compact()
	final, _ := hgmatch.Count(query, compacted)

	fmt.Println(before, after, final)
	// Output:
	// 1 2 2
}

// ExampleQueryKey shows the query key the hgserve plan cache is built on:
// a query declared alike shares it, while reordered edges or different
// labels do not.
func ExampleQueryKey() {
	a, _ := hgmatch.FromEdges([]hgmatch.Label{0, 1, 0}, [][]uint32{{0, 1}, {1, 2}})
	same, _ := hgmatch.FromEdges([]hgmatch.Label{0, 1, 0}, [][]uint32{{0, 1}, {1, 2}})
	b, _ := hgmatch.FromEdges([]hgmatch.Label{0, 1, 0}, [][]uint32{{1, 2}, {0, 1}})
	c, _ := hgmatch.FromEdges([]hgmatch.Label{0, 1, 1}, [][]uint32{{0, 1}, {1, 2}})

	fmt.Println(hgmatch.QueryKey(a) == hgmatch.QueryKey(same))
	fmt.Println(hgmatch.QueryKey(a) == hgmatch.QueryKey(b))
	fmt.Println(hgmatch.QueryKey(a) == hgmatch.QueryKey(c))
	// Output:
	// true
	// false
	// false
}
