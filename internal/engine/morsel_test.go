package engine_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// morselWorkload builds a dense single-label workload whose result count
// far exceeds one block (morselRows), so limits and cancellations land in
// the middle of blocks rather than at task boundaries.
func morselWorkload(t *testing.T, seed int64, nq int) *core.Plan {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 300, NumLabels: 1, MaxArity: 3,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, nq)
	if q == nil {
		t.Skip("no query")
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLimitExactMidBlock drives limits that fall inside a block: below one
// block, just above one block, and far into the run. The reported count and
// the number of sharded-callback deliveries must both equal the limit
// exactly, under contention.
func TestLimitExactMidBlock(t *testing.T) {
	p := morselWorkload(t, 21, 3)
	full := engine.Run(p, engine.Options{Workers: 2})
	if full.Embeddings < 1000 {
		t.Skipf("workload too small: %d", full.Embeddings)
	}
	for _, limit := range []uint64{3, 200, 257, 999} {
		for _, workers := range []int{1, 4, 8} {
			var delivered atomic.Uint64
			res := engine.Run(p, engine.Options{
				Workers: workers,
				Limit:   limit,
				OnGroup: hgtest.RowsOf(func(worker int, m []hypergraph.EdgeID) {
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

// TestWorkerCallbackSharded checks the sharded sink contract: worker
// indexes stay in range, per-worker delivery counts match the per-worker
// SinkCount stats, and the total matches the run's count.
func TestWorkerCallbackSharded(t *testing.T) {
	p := morselWorkload(t, 7, 3)
	const workers = 4
	perWorker := make([]uint64, workers)
	res := engine.Run(p, engine.Options{
		Workers: workers,
		OnGroup: hgtest.RowsOf(func(worker int, m []hypergraph.EdgeID) {
			if worker < 0 || worker >= workers {
				panic("worker index out of range")
			}
			perWorker[worker]++ // safe: each index is only touched by its worker
		}),
	})
	var total uint64
	for i, n := range perWorker {
		total += n
		if n != res.Workers[i].SinkCount {
			t.Errorf("worker %d delivered %d but SinkCount=%d", i, n, res.Workers[i].SinkCount)
		}
	}
	if total != res.Embeddings {
		t.Errorf("sharded deliveries %d != embeddings %d", total, res.Embeddings)
	}
}

// TestCancelMidBlock cancels the context while workers are deep inside
// block expansion; the run must stop promptly and report TimedOut.
func TestCancelMidBlock(t *testing.T) {
	p := morselWorkload(t, 11, 4)
	ctx, cancel := context.WithCancel(context.Background())
	var fired sync.Once
	start := time.Now()
	res := engine.Run(p, engine.Options{
		Workers: 4,
		Context: ctx,
		OnGroup: hgtest.RowsOf(func(worker int, m []hypergraph.EdgeID) {
			fired.Do(cancel) // cancel as soon as the first embedding lands
		}),
	})
	if res.Embeddings == 0 {
		t.Skip("workload produced nothing before cancellation")
	}
	full := engine.Run(p, engine.Options{Workers: 4})
	if full.Embeddings < 10_000 {
		t.Skipf("workload too small (%d) to observe mid-run cancellation", full.Embeddings)
	}
	if !res.TimedOut {
		t.Errorf("cancelled run did not report TimedOut (found %d of %d in %s)",
			res.Embeddings, full.Embeddings, time.Since(start))
	}
	if res.Embeddings >= full.Embeddings {
		t.Errorf("cancelled run completed fully: %d", res.Embeddings)
	}
}

// TestDisableStealingTerminates: with stealing off, every pool worker must
// drain exactly its static share and let the request finish — no worker may
// hang on an empty deque — and the union of shares is the full result set.
func TestDisableStealingTerminates(t *testing.T) {
	p := morselWorkload(t, 5, 3)
	want, _ := p.CountSequential()
	done := make(chan engine.Result, 1)
	go func() {
		done <- engine.Run(p, engine.Options{Workers: 8, DisableStealing: true})
	}()
	select {
	case res := <-done:
		if res.Embeddings != want {
			t.Errorf("NOSTL found %d, want %d", res.Embeddings, want)
		}
		if res.TotalSteals() != 0 {
			t.Errorf("NOSTL performed %d steals", res.TotalSteals())
		}
		if res.LeakedBlocks != 0 {
			t.Errorf("NOSTL leaked %d blocks", res.LeakedBlocks)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("DisableStealing run did not terminate")
	}
}

// TestPeakBlockAccounting pins the block-unit Theorem VI.1 accounting: the
// task scheduler's peak is counted in blocks, each bounded by
// TaskBlockBytes, on a workload whose results span many blocks. The
// contrast with BFS's materialised levels (Exp-5) is pinned in
// internal/experiments.
func TestPeakBlockAccounting(t *testing.T) {
	p := morselWorkload(t, 9, 3)
	task := engine.Run(p, engine.Options{Workers: 2})
	if task.Embeddings < 10_000 {
		t.Skipf("workload too small: %d", task.Embeddings)
	}
	if task.PeakTasks <= 0 {
		t.Fatalf("task scheduler reported no live blocks")
	}
	if got, want := task.PeakTaskBytes, task.PeakTasks*int64(engine.TaskBlockBytes(p)); got != want {
		t.Errorf("block byte accounting: %d != %d", got, want)
	}
}

// TestDeepQueryInlineRecursion exercises the inline depth-first dispatch
// across several levels (nq up to 5) against the sequential oracle, with
// and without stealing.
func TestDeepQueryInlineRecursion(t *testing.T) {
	for seed := int64(30); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
			NumVertices: 25, NumEdges: 80, NumLabels: 2, MaxArity: 4,
		})
		nq := 4 + int(seed%2)
		q := hgtest.ConnectedQueryFromWalk(rng, h, nq)
		if q == nil {
			continue
		}
		p, err := core.NewPlan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := p.CountSequential()
		for _, opts := range []engine.Options{
			{Workers: 1},
			{Workers: 6},
			{Workers: 6, DisableStealing: true},
		} {
			if got := engine.Run(p, opts).Embeddings; got != want {
				t.Fatalf("seed %d nq %d opts %+v: got %d want %d", seed, nq, opts, got, want)
			}
		}
	}
}
