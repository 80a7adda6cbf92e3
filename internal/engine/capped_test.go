package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// TestCappedAnswer pins the answer of a capped run that delivers rows: the
// first n rows of the sequential order, which are the n smallest tuples,
// streamed in that order. It must hold row for row on every path — Run and
// Pool.Submit, pools of 1 and 4 workers, requests capped at 1 and 4
// workers — for every callback shape, on bitmap-dense, array-only,
// live-delta (with a table emptied by tombstones) and compacted graphs.
func TestCappedAnswer(t *testing.T) {
	pools := map[int]*engine.Pool{1: engine.NewPool(1), 4: engine.NewPool(4)}
	for _, pool := range pools {
		defer pool.Close()
	}
	for gi, g := range hgtest.ServingGraphs() {
		cases, err := hgtest.CappedCases(g.Graph, int64(gi), 2000)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(cases) < 6 {
			t.Fatalf("%s: only %d queries sampled; fixture needs retuning", g.Name, len(cases))
		}
		for ci, c := range cases {
			for _, limit := range c.Limits() {
				want := c.Prefix(limit)
				check := func(path string, res engine.Result, rows [][]hypergraph.EdgeID) {
					t.Helper()
					if !slices.EqualFunc(rows, want, slices.Equal) || res.Embeddings != uint64(len(want)) {
						t.Fatalf("%s query %d limit %d %s: %d rows (count %d), want the first %d of the sequential order",
							g.Name, ci, limit, path, len(rows), res.Embeddings, len(want))
					}
					if res.LeakedBlocks != 0 {
						t.Fatalf("%s query %d limit %d %s: %d leaked blocks", g.Name, ci, limit, path, res.LeakedBlocks)
					}
				}
				for _, workers := range []int{1, 4} {
					var rows [][]hypergraph.EdgeID
					res := engine.Run(c.Plan, engine.Options{Workers: workers, Limit: limit, OnEmbedding: func(m []hypergraph.EdgeID) {
						rows = append(rows, slices.Clone(m))
					}})
					check(fmt.Sprintf("Run workers=%d", workers), res, rows)
				}
				for width, pool := range pools {
					for _, workers := range []int{1, 4} {
						var rows, groups [][]hypergraph.EdgeID
						res := pool.Submit(c.Plan, engine.Options{
							Workers: workers,
							Limit:   limit,
							OnEmbeddingWorker: func(w int, m []hypergraph.EdgeID) {
								if w != 0 {
									panic(fmt.Sprintf("capped run called back on worker %d", w))
								}
								rows = append(rows, slices.Clone(m))
							},
							OnGroup: func(_ int, prefix, last []hypergraph.EdgeID) {
								for _, e := range last {
									groups = append(groups, append(slices.Clone(prefix), e))
								}
							},
							Aggregate: func(m []hypergraph.EdgeID) string { return fmt.Sprint(m[0] % 2) },
						})
						path := fmt.Sprintf("Submit pool=%d workers=%d", width, workers)
						check(path, res, rows)
						check(path+" OnGroup", res, groups)
						var grouped uint64
						for _, n := range res.Groups {
							grouped += n
						}
						if grouped != res.Embeddings {
							t.Fatalf("%s query %d limit %d %s: groups count %d rows, want %d", g.Name, ci, limit, path, grouped, res.Embeddings)
						}
					}
				}
			}
		}
	}
}
