package engine_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// TestLimitNeverExceeded stresses the limit under many workers on a
// high-result workload: the reported count and the callback delivery count
// must both be exactly the limit.
func TestLimitNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 300, NumLabels: 1, MaxArity: 3,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 3)
	if q == nil {
		t.Skip("no query")
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	full := engine.Run(p, engine.Options{Workers: 2})
	if full.Embeddings < 50 {
		t.Skipf("workload too small: %d", full.Embeddings)
	}
	for _, limit := range []uint64{1, 7, 50} {
		for _, workers := range []int{1, 8} {
			var delivered atomic.Uint64
			res := engine.Run(p, engine.Options{
				Workers: workers,
				Limit:   limit,
				OnGroup: hgtest.SerialRowsOf(func([]hypergraph.EdgeID) {
					delivered.Add(1)
				}),
			})
			if res.Embeddings != limit {
				t.Errorf("limit=%d workers=%d: counted %d", limit, workers, res.Embeddings)
			}
			if d := delivered.Load(); d != limit {
				t.Errorf("limit=%d workers=%d: delivered %d", limit, workers, d)
			}
		}
	}
}
