package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// TestShardScanSubsetUnion pins the property the scatter coordinator
// (internal/shard) is built on: splitting the SCAN seed set into disjoint
// subsets and running one sub-run per subset yields exactly the solo run's
// embeddings and counters — every embedding is rooted at exactly one seed,
// so sub-runs neither overlap nor miss.
func TestShardScanSubsetUnion(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 25, NumEdges: 60, NumLabels: 2, MaxArity: 4,
		})
		q := hgtest.ConnectedQueryFromWalk(rng, h, 2+int(seed%3))
		if q == nil {
			continue
		}
		p, err := core.NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		full := engine.Run(p, engine.Options{Workers: 3, OnGroup: hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
			want = append(want, fmt.Sprint(m))
		})})
		sort.Strings(want)
		scan := p.InitialCandidates()
		for _, parts := range []int{2, 3, 5} {
			var got []string
			var sum engine.Result
			for i := 0; i < parts; i++ {
				lo, hi := i*len(scan)/parts, (i+1)*len(scan)/parts
				sub := engine.Run(p, engine.Options{
					Workers: 3,
					Scan:    scan[lo:hi],
					OnGroup: hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
						got = append(got, fmt.Sprint(m))
					}),
				})
				sum.Embeddings += sub.Embeddings
				sum.Counters.Add(sub.Counters)
			}
			sort.Strings(got)
			if sum.Embeddings != full.Embeddings || len(got) != len(want) {
				t.Fatalf("seed %d parts %d: union has %d embeddings, solo %d", seed, parts, sum.Embeddings, full.Embeddings)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d parts %d: embedding sets diverge at %d", seed, parts, i)
				}
			}
			// Deterministic counters decompose additively with the seeds.
			if sum.Counters != full.Counters {
				t.Fatalf("seed %d parts %d: counters %+v, solo %+v", seed, parts, sum.Counters, full.Counters)
			}
		}
	}
}

// TestShardScanEmptyShortCircuit: a non-nil empty Scan is an empty-shard
// sub-run and must complete with a zero result on both the solo Run path
// and the shared Pool path, without doing any matching work.
func TestShardScanEmptyShortCircuit(t *testing.T) {
	p := fig1Plan(t)
	empty := []hypergraph.EdgeID{}
	res := engine.Run(p, engine.Options{Workers: 2, Scan: empty})
	if res.Embeddings != 0 || res.Counters.Expansions != 0 || res.LeakedBlocks != 0 {
		t.Fatalf("empty-scan Run did work: %+v", res)
	}
	pool := engine.NewPool(2)
	defer pool.Close()
	res = pool.Submit(p, engine.Options{Scan: empty})
	if res.Embeddings != 0 || res.Counters.Expansions != 0 {
		t.Fatalf("empty-scan Submit did work: %+v", res)
	}
	// nil Scan still means "the whole start partition".
	if res = pool.Submit(p, engine.Options{}); res.Embeddings != 2 {
		t.Fatalf("nil-scan Submit found %d embeddings, want 2", res.Embeddings)
	}
}
