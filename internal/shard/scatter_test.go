package shard_test

import (
	"context"
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
// and the multi-unit merge path is exercised, not just the 1-unit one.
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

// TestShardScatterMatchesSolo pins the scatter/gather contract: for every
// shard count, a scattered run reports the same embedding count, the same
// deterministic instrumentation counters and the same AGGREGATE groups as
// one solo engine run of the identical plan, and leaks no blocks.
func TestShardScatterMatchesSolo(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	for seed := int64(0); seed < 10; seed++ {
		p, h := scatterPlan(t, seed)
		if p == nil {
			continue
		}
		agg := func(m []hypergraph.EdgeID) string { return fmt.Sprint(m[0] % 3) }
		want := engine.Run(p, engine.Options{Workers: 4, Aggregate: agg})
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

// TestShardScatterStreamDeterministic pins the gather order: the merged
// embedding stream is byte-identical across every shard count (per-unit
// sorted rows in ascending unit order), which is what lets the server
// promise byte-identical NDJSON bodies however the deployment is sharded.
func TestShardScatterStreamDeterministic(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	p, h := wideWorkload(t)
	collect := func(n int, limit uint64) []string {
		g, err := shard.New(h, n)
		if err != nil {
			t.Fatal(err)
		}
		var rows, grouped []string
		shard.Scatter(pool, g, p, engine.Options{
			Workers: 4,
			Limit:   limit,
			OnEmbedding: func(m []hypergraph.EdgeID) {
				rows = append(rows, fmt.Sprint(m))
			},
			// The gather replays its sorted stream to a group consumer too,
			// one row per group.
			OnGroup: func(_ int, prefix, last []hypergraph.EdgeID) {
				for _, c := range last {
					grouped = append(grouped, fmt.Sprint(append(prefix[:len(prefix):len(prefix)], c)))
				}
			},
		})
		if !slices.Equal(grouped, rows) {
			t.Fatalf("limit=%d n=%d: OnGroup saw %d rows, OnEmbedding %d, or in another order", limit, n, len(grouped), len(rows))
		}
		return rows
	}
	for _, limit := range []uint64{0, 1, 1500} {
		want := collect(1, limit)
		wantLen := 2500
		if limit > 0 {
			wantLen = int(limit)
		}
		if len(want) != wantLen {
			t.Fatalf("limit=%d: n=1 streamed %d rows, want %d", limit, len(want), wantLen)
		}
		for _, n := range []int{2, 4, 8} {
			got := collect(n, limit)
			if len(got) != len(want) {
				t.Fatalf("limit=%d n=%d: %d rows, n=1 streamed %d", limit, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("limit=%d n=%d: stream diverges at row %d: %s vs %s",
						limit, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardScatterLimitSubset checks a limited scatter returns a true
// subset of the full result set and recomputes Groups from the kept rows.
func TestShardScatterLimitSubset(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	p, h := wideWorkload(t)
	full := make(map[string]bool)
	engine.Run(p, engine.Options{Workers: 1, OnEmbedding: func(m []hypergraph.EdgeID) {
		full[fmt.Sprint(m)] = true
	}})
	g, err := shard.New(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 100
	agg := func(m []hypergraph.EdgeID) string { return fmt.Sprint(m[0] % 2) }
	var kept []string
	res := shard.Scatter(pool, g, p, engine.Options{
		Workers:   2,
		Limit:     limit,
		Aggregate: agg,
		OnEmbedding: func(m []hypergraph.EdgeID) {
			kept = append(kept, fmt.Sprint(m))
		},
	})
	if res.Embeddings != limit || len(kept) != limit {
		t.Fatalf("limited scatter kept %d rows (res %d), want %d", len(kept), res.Embeddings, limit)
	}
	for _, row := range kept {
		if !full[row] {
			t.Fatalf("limited scatter emitted %s, not in the full result set", row)
		}
	}
	var groupSum uint64
	for _, c := range res.Groups {
		groupSum += c
	}
	if groupSum != limit {
		t.Fatalf("groups sum to %d, want the %d kept rows", groupSum, limit)
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

// TestShardScatterTimeoutBoundsRun pins the review fix on deadline
// propagation: Options.Timeout is converted once into a shared context
// deadline that must reach every unit sub-run AND be checked between
// units, so an expired deadline stops the scatter instead of letting the
// fan-out run unbounded (the server's MaxTimeout contract). An already-
// expired 1ns deadline must abort both the parallel and the Limit paths
// before they enumerate the full 2500-row workload.
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
// cancellation at randomized points mid-scatter (including mid-merge) and
// checks the invariant the engine promises on every abort path: zero
// leaked embedding blocks, and the shared pool stays fully serviceable.
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
				Workers: 2,
				Context: ctx,
				OnEmbedding: func(m []hypergraph.EdgeID) {
					_ = m // buffered gather path: cancellation can land mid-merge
				},
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
}

// TestShardIngestWhileScatterMatching runs scattered matches concurrently
// with routed ingest through the same sharded graph. Every match is
// compiled against an immutable snapshot, so each scattered result must
// equal a solo run of its own plan no matter how the writer interleaves.
func TestShardIngestWhileScatterMatching(t *testing.T) {
	pool := engine.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(5))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 25, NumEdges: 60, NumLabels: 2, MaxArity: 4,
	})
	q := hgtest.ConnectedQueryFromWalk(rng, h, 2)
	if q == nil {
		t.Skip("no query")
	}
	g, err := shard.New(h, 4)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		wrng := rand.New(rand.NewSource(6))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vs := []uint32{wrng.Uint32() % 25, wrng.Uint32() % 25}
			if _, _, err := g.Insert(vs...); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			g.Publish()
			if i%8 == 7 {
				if _, err := g.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				snap := g.Live().Snapshot()
				p, err := core.NewPlan(q, snap)
				if err != nil {
					t.Errorf("plan: %v", err)
					return
				}
				res := shard.Scatter(pool, g, p, engine.Options{Workers: 2})
				want := engine.Run(p, engine.Options{Workers: 1})
				if res.Embeddings != want.Embeddings {
					t.Errorf("iter %d: scattered %d embeddings, solo %d", i, res.Embeddings, want.Embeddings)
					return
				}
				if res.LeakedBlocks != 0 {
					t.Errorf("iter %d: %d leaked blocks", i, res.LeakedBlocks)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
