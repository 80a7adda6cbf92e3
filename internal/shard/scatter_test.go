package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/shard"
)

// scatterPlan compiles a random connected query against a random graph,
// skipping seeds that yield no usable query.
func scatterPlan(t *testing.T, seed int64) (*core.Plan, *hypergraph.Hypergraph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 25, NumEdges: 60, NumLabels: 2, MaxArity: 4,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 2+int(seed%3))
	if q == nil {
		return nil, nil
	}
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	return p, h
}

// wideWorkload builds a single-table graph whose SCAN has thousands of
// candidates, so a scatter splits it into several units (unitEdges = 1024)
// and the multi-unit merge is exercised, not just the 1-unit one.
func wideWorkload(t *testing.T) (*core.Plan, *hypergraph.Hypergraph) {
	t.Helper()
	const L, edges = 7, 2500
	b := hypergraph.NewBuilder()
	for i := 0; i < edges+1; i++ {
		b.AddVertex(L)
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	h := b.MustBuild()
	qb := hypergraph.NewBuilder()
	qb.AddEdge(qb.AddVertex(L), qb.AddVertex(L))
	p, err := core.NewPlan(qb.MustBuild(), h)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.InitialCandidates()); got != edges {
		t.Fatalf("wide workload has %d scan candidates, want %d", got, edges)
	}
	return p, h
}

// TestShardScatterMatchesSolo pins the fan-out contract: for every shard
// count, a scattered run reports the same embedding count, the same
// deterministic instrumentation counters and the same AGGREGATE groups as
// one pool.Submit of the identical plan, and leaks no blocks.
func TestShardScatterMatchesSolo(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	for seed := int64(0); seed < 10; seed++ {
		p, h := scatterPlan(t, seed)
		if p == nil {
			continue
		}
		agg := func(m []hypergraph.EdgeID) string { return fmt.Sprint(m[0] % 3) }
		want := pool.Submit(p, engine.Options{Workers: 4, Aggregate: agg})
		for _, n := range []int{1, 2, 4, 8} {
			g, err := shard.New(h, n)
			if err != nil {
				t.Fatal(err)
			}
			res := shard.Scatter(pool, g, p, engine.Options{Workers: 4, Aggregate: agg})
			if res.Embeddings != want.Embeddings {
				t.Fatalf("seed %d n=%d: %d embeddings, solo found %d", seed, n, res.Embeddings, want.Embeddings)
			}
			if res.Counters.Candidates != want.Counters.Candidates ||
				res.Counters.Filtered != want.Counters.Filtered ||
				res.Counters.Valid != want.Counters.Valid {
				t.Fatalf("seed %d n=%d: counters %+v, solo %+v", seed, n, res.Counters, want.Counters)
			}
			if fmt.Sprint(res.Groups) != fmt.Sprint(want.Groups) {
				t.Fatalf("seed %d n=%d: groups %v, solo %v", seed, n, res.Groups, want.Groups)
			}
			if res.LeakedBlocks != 0 {
				t.Fatalf("seed %d n=%d: %d leaked blocks", seed, n, res.LeakedBlocks)
			}
		}
	}
}

// TestShardScatterStreamDeterministic pins a capped scatter's stream: for
// every shard count it is the first n rows of the sequential order, in that
// order.
func TestShardScatterStreamDeterministic(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	p, h := wideWorkload(t)
	var sequential []string
	p.EnumerateSequential(func(m []hypergraph.EdgeID) { sequential = append(sequential, fmt.Sprint(m)) })
	for _, limit := range []uint64{1, 1500, 2500} {
		for _, n := range []int{1, 2, 4, 8} {
			g, err := shard.New(h, n)
			if err != nil {
				t.Fatal(err)
			}
			var rows []string
			shard.Scatter(pool, g, p, engine.Options{
				Workers: 4,
				Limit:   limit,
				OnGroup: hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
					rows = append(rows, fmt.Sprint(m))
				}),
			})
			if !slices.Equal(rows, sequential[:limit]) {
				t.Fatalf("limit=%d n=%d: streamed %d rows, not the sequential prefix", limit, n, len(rows))
			}
		}
	}
}

// TestShardScatterEmptyShortCircuit: a plan with no SCAN candidates (or an
// explicitly empty scan) returns a zero Result without touching the pool.
func TestShardScatterEmptyShortCircuit(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	h := hgtest.Fig1Data()
	g, err := shard.New(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	qb := hypergraph.NewBuilder()
	qb.AddEdge(qb.AddVertex(99), qb.AddVertex(99)) // label absent from Fig. 1
	p, err := core.NewPlan(qb.MustBuild(), h)
	if err != nil {
		t.Fatal(err)
	}
	res := shard.Scatter(pool, g, p, engine.Options{Workers: 2})
	if res.Embeddings != 0 || res.TimedOut || res.LeakedBlocks != 0 {
		t.Fatalf("empty plan scatter: %+v", res)
	}
	p2, err := core.NewPlan(hgtest.Fig1Query(), h)
	if err != nil {
		t.Fatal(err)
	}
	res = shard.Scatter(pool, g, p2, engine.Options{Workers: 2, Scan: []hypergraph.EdgeID{}})
	if res.Embeddings != 0 {
		t.Fatalf("explicit empty scan found %d embeddings", res.Embeddings)
	}
}

// TestShardScatterTimeoutBoundsRun pins deadline propagation:
// Options.Timeout is converted once into a shared context deadline that
// must reach every unit sub-run AND be checked between units, so an
// expired deadline stops the fan-out instead of letting it run unbounded.
// An already-expired 1ns deadline must abort both the fan-out and a capped
// run before they enumerate the full 2500-row workload.
func TestShardScatterTimeoutBoundsRun(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	p, h := wideWorkload(t)
	g, err := shard.New(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := shard.Scatter(pool, g, p, engine.Options{Workers: 4, Timeout: time.Nanosecond})
	if !res.TimedOut {
		t.Fatal("expired deadline not reported as TimedOut")
	}
	if res.Embeddings >= 2500 {
		t.Fatalf("expired deadline still enumerated the full workload (%d embeddings)", res.Embeddings)
	}
	if res.LeakedBlocks != 0 {
		t.Fatalf("%d leaked blocks on the timeout path", res.LeakedBlocks)
	}
	res = shard.Scatter(pool, g, p, engine.Options{Workers: 4, Timeout: time.Nanosecond, Limit: 2000})
	if !res.TimedOut {
		t.Fatal("expired deadline not reported as TimedOut on the Limit path")
	}
	if res.Embeddings >= 2000 {
		t.Fatalf("expired deadline still filled the limit (%d embeddings)", res.Embeddings)
	}
	// The pool must come back clean: a full-deadline run right after.
	res = shard.Scatter(pool, g, p, engine.Options{Workers: 4, Timeout: time.Minute})
	if res.TimedOut || res.Embeddings != 2500 {
		t.Fatalf("post-timeout scatter: %d embeddings, timed out %v", res.Embeddings, res.TimedOut)
	}
}

// TestShardScatterConcurrentCancel races several scattered runs against
// cancellation at randomized points mid-fan-out and checks the invariant
// the engine promises on every abort path: zero leaked embedding blocks,
// and the shared pool stays fully serviceable. A faulted sub-run must
// classify the whole scatter the same way.
func TestShardScatterConcurrentCancel(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	p, h := wideWorkload(t)
	g, err := shard.New(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	delays := make([]time.Duration, 24)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(2000)) * time.Microsecond
	}
	var wg sync.WaitGroup
	for _, d := range delays {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(d, cancel)
			defer timer.Stop()
			defer cancel()
			res := shard.Scatter(pool, g, p, engine.Options{
				Workers:   2,
				Context:   ctx,
				Aggregate: func(m []hypergraph.EdgeID) string { return "" },
			})
			if res.LeakedBlocks != 0 {
				t.Errorf("cancel after %v: %d leaked blocks", d, res.LeakedBlocks)
			}
		}(d)
	}
	wg.Wait()
	// The pool must still serve an undisturbed run to completion.
	res := shard.Scatter(pool, g, p, engine.Options{Workers: 4})
	if res.Embeddings != 2500 || res.LeakedBlocks != 0 {
		t.Fatalf("post-cancel scatter: %d embeddings, %d leaked", res.Embeddings, res.LeakedBlocks)
	}
	res = shard.Scatter(pool, g, p, engine.Options{FaultHook: func(string) { panic("injected") }})
	if !errors.Is(res.Err, engine.ErrRequestPoisoned) || res.LeakedBlocks != 0 {
		t.Fatalf("faulted scatter: err=%v, %d leaked", res.Err, res.LeakedBlocks)
	}
	if res = shard.Scatter(pool, g, p, engine.Options{Workers: 4}); res.Err != nil || res.Embeddings != 2500 {
		t.Fatalf("scatter after a fault: err=%v, %d embeddings", res.Err, res.Embeddings)
	}
}
