package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// morselWorkload builds a dense single-label workload whose result count
// far exceeds one block, so that a yield lands in the middle of a block.
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

// sortedEmbeddings collects every embedding of a run in a canonical sorted
// form, whatever the worker interleaving.
func sortedEmbeddings(run func(opts engine.Options) engine.Result, base engine.Options) ([]string, engine.Result) {
	var out []string
	base.OnGroup = hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
		out = append(out, fmt.Sprint(m))
	})
	res := run(base)
	sort.Strings(out)
	return out, res
}

// pastSlice is how long the yield tests keep a request's workers parked
// after a newer request registered: longer than the engine's 250 µs slice,
// so the workers are due to yield the moment they resume. It only bounds
// the wait from below; the assertions count rows and yields, not time.
const pastSlice = 2 * time.Millisecond

// parkThenSubmit runs a on a 2-worker pool with each worker parked in a's
// row callback at its first row until b has registered and pastSlice has
// gone by, so both of a's workers are due to yield when they resume. onA
// sees every row of a, the first one of each worker included. It returns
// both results.
func parkThenSubmit(t *testing.T, pool *engine.Pool, a, b *core.Plan, onA func(w int, m []hypergraph.EdgeID), optsB engine.Options) (engine.Result, engine.Result) {
	t.Helper()
	if pool.Workers() != 2 {
		t.Fatalf("parkThenSubmit needs a 2-worker pool, got %d", pool.Workers())
	}
	before := pool.Stats().Submitted
	var parked sync.WaitGroup
	parked.Add(2)
	var park [2]sync.Once
	gate := make(chan struct{})
	resA := make(chan engine.Result, 1)
	go func() {
		resA <- pool.Submit(a, engine.Options{OnGroup: hgtest.RowsOf(func(w int, m []hypergraph.EdgeID) {
			park[w].Do(func() { parked.Done(); <-gate })
			if onA != nil {
				onA(w, m)
			}
		})})
	}()
	parked.Wait()
	resB := make(chan engine.Result, 1)
	go func() { resB <- pool.Submit(b, optsB) }()
	for pool.Stats().Submitted < before+2 {
		time.Sleep(20 * time.Microsecond)
	}
	time.Sleep(pastSlice)
	close(gate)
	return <-resA, <-resB
}

// TestYieldBoundedInRows pins the preemption bound in rows. Both workers of
// a 2-worker pool are parked inside a long uncapped request A when B
// registers; released past their slice, each may finish the leaf row it was
// in and must then detach, publishing the rest instead of expanding it. B
// is a one-hyperedge NOSTL query of at most one scan chunk per worker, and
// B starts at A's slot count, so each worker's yield raises A's slots past
// B's and its re-pick goes to B. A worker's A rows before its first B row
// are exactly the rows it expanded after B arrived: they must all extend
// one partial embedding. The pool counts exactly two yields, one per
// parked worker of A (nothing arrives after B). Both answers must equal their lone runs — a re-queued block
// resumes where it stopped, expanding no row twice and skipping none.
func TestYieldBoundedInRows(t *testing.T) {
	pa := morselWorkload(t, 11, 4)
	pb := morselWorkload(t, 10, 1)
	loneA := engine.Run(pa, engine.Options{Workers: 2})
	if loneA.Embeddings < 100_000 {
		t.Skipf("workload too small: %d", loneA.Embeddings)
	}
	if n := len(pb.InitialCandidates()); n > 2*64 {
		t.Fatalf("B has %d seeds, more than one scan chunk per worker", n)
	}
	wantB, loneB := sortedEmbeddings(func(o engine.Options) engine.Result { return engine.Run(pb, o) }, engine.Options{Workers: 2, DisableStealing: true})

	pool := engine.NewPool(2)
	defer pool.Close()
	// One timeline per pool worker, appended only by that worker: the
	// partial embedding of every A row it delivered, until its first B row.
	var aRows [2][][3]hypergraph.EdgeID
	var sawB [2]bool
	var mu sync.Mutex
	var gotB []string
	a, b := parkThenSubmit(t, pool, pa, pb, func(w int, m []hypergraph.EdgeID) {
		if !sawB[w] {
			aRows[w] = append(aRows[w], [3]hypergraph.EdgeID(m[:3]))
		}
	}, engine.Options{DisableStealing: true, OnGroup: hgtest.RowsOf(func(w int, m []hypergraph.EdgeID) {
		sawB[w] = true
		mu.Lock()
		gotB = append(gotB, fmt.Sprint(m))
		mu.Unlock()
	})})

	for w := range aRows {
		if !sawB[w] {
			t.Fatalf("worker %d never served B", w)
		}
		rows := map[[3]hypergraph.EdgeID]bool{}
		for _, r := range aRows[w] {
			rows[r] = true
		}
		if len(rows) > 1 {
			t.Errorf("worker %d expanded %d leaf rows of A after B arrived, want at most the one it was in", w, len(rows))
		}
	}
	if got := pool.Stats().Yields; got != 2 {
		t.Errorf("pool counted %d yields, want 2 (one per parked worker of A)", got)
	}
	if a.Embeddings != loneA.Embeddings || a.Counters != loneA.Counters || a.LeakedBlocks != 0 {
		t.Errorf("A: %d embeddings, counters %+v, %d leaked; lone run %d, %+v",
			a.Embeddings, a.Counters, a.LeakedBlocks, loneA.Embeddings, loneA.Counters)
	}
	if b.Counters != loneB.Counters || b.LeakedBlocks != 0 {
		t.Errorf("B: counters %+v, %d leaked; lone run %+v", b.Counters, b.LeakedBlocks, loneB.Counters)
	}
	sort.Strings(gotB)
	if strings.Join(gotB, "\n") != strings.Join(wantB, "\n") {
		t.Errorf("B delivered %d rows unlike its lone run's %d", len(gotB), len(wantB))
	}
}

// TestYieldNeverAlone: a request with nothing registered after it never
// yields, however long it runs; one whose only worker wakes past its slice
// in its first group, a newcomer registered meanwhile, yields to it at once
// (the model's newcomer check, on a pool of one).
func TestYieldNeverAlone(t *testing.T) {
	poolModel(t, pmPlan{from: 3401, to: 3401, rounds: 60, ops: "block rows", must: "alone newcomer"})
}

// TestWorkerStatsConservationUnderYield: where yields fire, a re-queued
// block is a spawned task, so every task executed is still an initial scan
// task or spawned by another.
func TestWorkerStatsConservationUnderYield(t *testing.T) {
	poolModel(t, pmPlan{from: 3501, to: 3504, rounds: 25, ops: "block rows workers", must: "yield complete"})
}

// TestYieldSkipsOrderedAndNoStealing: capped-row and NOSTL runs keep whole
// quanta: a newcomer makes none of them yield, and they keep their answers.
func TestYieldSkipsOrderedAndNoStealing(t *testing.T) {
	poolModel(t, pmPlan{from: 3601, to: 3604, rounds: 20, ops: "limit nostl rows block", must: "quanta-kept"})
}
