package engine_test

import (
	"fmt"
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

// TestYieldNeverAlone: a Submit with nothing else registered never yields,
// however long it runs — nothing arrives beside it.
func TestYieldNeverAlone(t *testing.T) {
	p := morselWorkload(t, 11, 4)
	pool := engine.NewPool(2)
	defer pool.Close()
	pool.Submit(p, engine.Options{})
	pool.Submit(p, engine.Options{})
	if got := pool.Stats().Yields; got != 0 {
		t.Errorf("pool counted %d yields with one request at a time", got)
	}
}

// TestWorkerStatsConservationUnderYield is TestWorkerStatsConservation on a
// contended pool where yields fire: a re-queued block is a spawned task, so
// every task executed is still an initial scan task or spawned by another.
func TestWorkerStatsConservationUnderYield(t *testing.T) {
	pa := morselWorkload(t, 11, 4)
	pb := morselWorkload(t, 21, 3)
	pool := engine.NewPool(2)
	defer pool.Close()
	a, _ := parkThenSubmit(t, pool, pa, pb, nil, engine.Options{})
	if pool.Stats().Yields == 0 {
		t.Fatal("no yield fired")
	}
	var tasks, spawned uint64
	for _, ws := range a.Workers {
		tasks += ws.Tasks
		spawned += ws.Spawned
	}
	initial := uint64(0)
	n := len(pa.InitialCandidates())
	for i := 0; i < 2; i++ {
		if i*n/2 < (i+1)*n/2 {
			initial++
		}
	}
	if tasks != spawned+initial {
		t.Errorf("task conservation violated: executed %d, spawned %d + initial %d", tasks, spawned, initial)
	}
}

// TestYieldSkipsOrderedAndNoStealing: capped-row and NOSTL runs keep whole
// quanta — a newcomer does not make them yield — and keep their answers.
func TestYieldSkipsOrderedAndNoStealing(t *testing.T) {
	p := morselWorkload(t, 11, 4)
	want, _ := p.CountSequential()
	pool := engine.NewPool(2)
	defer pool.Close()
	for name, opts := range map[string]engine.Options{
		"NOSTL":  {DisableStealing: true},
		"capped": {Limit: want / 2, OnGroup: func(int, []hypergraph.EdgeID, []hypergraph.EdgeID) {}},
	} {
		var res engine.Result
		var wg sync.WaitGroup
		before, yields := pool.Stats().Submitted, pool.Stats().Yields
		wg.Add(1)
		go func() {
			defer wg.Done()
			res = pool.Submit(p, opts)
		}()
		for pool.Stats().Submitted == before {
			time.Sleep(20 * time.Microsecond)
		}
		pool.Submit(p, engine.Options{}) // arrives beside it; nothing arrives after it
		wg.Wait()
		if y := pool.Stats().Yields - yields; y != 0 {
			t.Errorf("%s run: %d yields", name, y)
		}
		n := want
		if opts.Limit > 0 {
			n = opts.Limit
		}
		if res.Embeddings != n {
			t.Errorf("%s run: %d embeddings, want %d", name, res.Embeddings, n)
		}
	}
}
