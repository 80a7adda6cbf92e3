package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgio"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// TestPoolConcurrentMixedRequests is the concurrency battery's engine
// half: many concurrent requests with mixed cheap/expensive plans on one
// shared pool, every per-request result identical to its solo run, no
// block leaks anywhere. Run under -race this exercises the attach/detach
// and completion-detection paths hard.
func TestPoolConcurrentMixedRequests(t *testing.T) {
	type workload struct {
		plan *core.Plan
		want uint64
	}
	var ws []workload
	for _, cfg := range []struct {
		seed int64
		nq   int
	}{{21, 3}, {11, 4}, {5, 3}, {7, 2}, {9, 3}} {
		p := morselWorkload(t, cfg.seed, cfg.nq)
		ws = append(ws, workload{p, engine.Run(p, engine.Options{Workers: 1}).Embeddings})
	}

	pool := engine.NewPool(4)
	defer pool.Close()

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(ws))
	for r := 0; r < rounds; r++ {
		for i, w := range ws {
			wg.Add(1)
			go func(r, i int, w workload) {
				defer wg.Done()
				opts := engine.Options{Workers: 1 + (r+i)%4}
				res := pool.Submit(w.plan, opts)
				if res.Embeddings != w.want {
					errs <- fmt.Errorf("round %d workload %d: got %d want %d", r, i, res.Embeddings, w.want)
				}
				if res.LeakedBlocks != 0 {
					errs <- fmt.Errorf("round %d workload %d: leaked %d blocks", r, i, res.LeakedBlocks)
				}
			}(r, i, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := pool.Stats()
	if want := uint64(rounds * len(ws)); st.Submitted != want || st.Completed != want {
		t.Errorf("pool stats: %+v, want %d submitted and completed", st, want)
	}
}

// TestPoolCancelIsolation cancels one expensive request while cheap
// requests flow through the same pool: the victims must complete with
// correct results, the cancelled request must stop, and the pool must
// keep serving afterwards — cancellation never stalls or leaks workers
// belonging to other requests.
func TestPoolCancelIsolation(t *testing.T) {
	expensive := morselWorkload(t, 11, 4)
	cheap := morselWorkload(t, 21, 3)
	cheapWant := engine.Run(cheap, engine.Options{Workers: 1}).Embeddings

	pool := engine.NewPool(4)
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var fired sync.Once
	done := make(chan engine.Result, 1)
	go func() {
		done <- pool.Submit(expensive, engine.Options{
			Context: ctx,
			OnGroup: hgtest.RowsOf(func(worker int, m []hypergraph.EdgeID) {
				fired.Do(cancel)
			}),
		})
	}()

	// Cheap requests run concurrently with the doomed one and after it.
	for i := 0; i < 6; i++ {
		if res := pool.Submit(cheap, engine.Options{}); res.Embeddings != cheapWant {
			t.Fatalf("victim request %d: got %d want %d", i, res.Embeddings, cheapWant)
		}
	}

	select {
	case res := <-done:
		if res.LeakedBlocks != 0 {
			t.Errorf("cancelled request leaked %d blocks", res.LeakedBlocks)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled request did not drain")
	}

	// The pool is still healthy after the cancellation.
	if res := pool.Submit(cheap, engine.Options{}); res.Embeddings != cheapWant {
		t.Errorf("post-cancel request: got %d want %d", res.Embeddings, cheapWant)
	}
}

// TestPoolLimitAndAggregate: the dataflow extension operators keep their
// semantics on the shared pool — an exact Limit with exactly Limit sharded
// callback deliveries, all on worker 0, a capped aggregation counting
// exactly Limit rows, and aggregation groups identical to solo — and the
// pool accounts every request as submitted and completed.
func TestPoolLimitAndAggregate(t *testing.T) {
	p := morselWorkload(t, 21, 3)
	full := engine.Run(p, engine.Options{Workers: 2})
	if full.Embeddings < 1000 {
		t.Skipf("workload too small: %d", full.Embeddings)
	}

	pool := engine.NewPool(4)
	defer pool.Close()

	for _, limit := range []uint64{3, 257, 999} {
		var delivered atomic.Uint64
		res := pool.Submit(p, engine.Options{
			Limit: limit,
			OnGroup: hgtest.RowsOf(func(worker int, m []hypergraph.EdgeID) {
				if worker != 0 {
					panic("a capped run called back on a worker other than 0")
				}
				delivered.Add(1)
			}),
		})
		if res.Embeddings != limit || delivered.Load() != limit {
			t.Errorf("limit=%d: counted %d delivered %d", limit, res.Embeddings, delivered.Load())
		}
		if res.LeakedBlocks != 0 {
			t.Errorf("limit=%d: leaked %d blocks", limit, res.LeakedBlocks)
		}
	}

	key := func(m []hypergraph.EdgeID) string {
		if m[0]%2 == 0 {
			return "even"
		}
		return "odd"
	}
	capped := pool.Submit(p, engine.Options{Limit: 257, Aggregate: key})
	if capped.Groups["even"]+capped.Groups["odd"] != 257 || capped.Embeddings != 257 {
		t.Errorf("capped aggregate: %d embeddings in groups %v, want 257", capped.Embeddings, capped.Groups)
	}
	want := engine.Run(p, engine.Options{Workers: 2, Aggregate: key}).Groups
	got := pool.Submit(p, engine.Options{Aggregate: key}).Groups
	if len(got) != len(want) {
		t.Fatalf("groups: got %v want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %q: got %d want %d", k, got[k], v)
		}
	}
	if st := pool.Stats(); st.Submitted != 5 || st.Completed != 5 || st.Active != 0 {
		t.Errorf("pool stats after five requests: %+v", st)
	}
}

// TestPoolNoStealingAndClose: a NOSTL request runs natively on a shared
// pool — each worker drains only its own slot of the static split, beside a
// stealing request — with the exact answer, no steals and nothing leaked,
// while a Submit after Close is refused with the shared shutdown sentinel
// rather than served.
func TestPoolNoStealingAndClose(t *testing.T) {
	p := morselWorkload(t, 5, 3)
	want, _ := p.CountSequential()

	pool := engine.NewPool(4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got := pool.Submit(p, engine.Options{}).Embeddings; got != want {
			t.Errorf("stealing neighbour: got %d want %d", got, want)
		}
	}()
	nostl := pool.Submit(p, engine.Options{DisableStealing: true})
	wg.Wait()
	if nostl.Embeddings != want || nostl.TotalSteals() != 0 || nostl.LeakedBlocks != 0 {
		t.Errorf("NOSTL via pool: got %d want %d, %d steals, %d leaked",
			nostl.Embeddings, want, nostl.TotalSteals(), nostl.LeakedBlocks)
	}
	pool.Close()
	res := pool.Submit(p, engine.Options{})
	if !errors.Is(res.Err, engine.ErrPoolClosed) {
		t.Errorf("closed-pool Submit: got err %v, want ErrPoolClosed", res.Err)
	}
	if !errors.Is(res.Err, hgio.ErrShuttingDown) {
		t.Errorf("ErrPoolClosed must wrap hgio.ErrShuttingDown; got %v", res.Err)
	}
	if res.Embeddings != 0 {
		t.Errorf("closed-pool Submit returned results: %d embeddings", res.Embeddings)
	}
	if got := pool.Submit(p, engine.Options{DisableStealing: true}); !errors.Is(got.Err, engine.ErrPoolClosed) {
		t.Errorf("closed-pool NOSTL Submit: got err %v, want ErrPoolClosed", got.Err)
	}
}

// TestRunJoinsItsPool: Run is a pool of one request, so every call starts
// a Pool and must join its workers before returning. Back-to-back runs of
// every shape — widths 1-4, limited, empty — leave no goroutine behind.
func TestRunJoinsItsPool(t *testing.T) {
	p := morselWorkload(t, 21, 3)
	empty := []hypergraph.EdgeID{}
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		opts := engine.Options{Workers: 1 + i%4}
		switch i % 3 {
		case 1:
			opts.Limit = 100
		case 2:
			opts.Scan = empty
		}
		if res := engine.Run(p, opts); res.Err != nil || res.LeakedBlocks != 0 {
			t.Fatalf("run %d: err=%v leaked=%d", i, res.Err, res.LeakedBlocks)
		}
	}
	// A joined worker has run its last deferred call but may not have been
	// reaped yet; a leaked one is parked for good. Allow the former.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 200 runs, %d after", before, after)
	}
}

// TestLeakDetectorRandomizedCancel is the block-leak audit's regression
// test: across many randomized cancel points (cancel after k embeddings,
// k drawn per run) the engine must report blocks out == blocks in —
// LeakedBlocks exactly zero — on solo runs and pool submits alike, the
// latter beside a neighbour that makes yields fire. A single unreleased
// block on any cancel path fails this immediately.
func TestLeakDetectorRandomizedCancel(t *testing.T) {
	p := morselWorkload(t, 11, 4)
	full := engine.Run(p, engine.Options{Workers: 2})
	if full.Embeddings < 10_000 {
		t.Skipf("workload too small: %d", full.Embeddings)
	}

	runs := 1000
	if testing.Short() {
		runs = 100
	}
	pool := engine.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(99))

	// Cancel points are drawn from a short prefix of the run: the paths
	// under test (mid-block stop, discard of queued tasks, free-list
	// return) all trigger within the first few thousand embeddings, and
	// early cancels keep 1000 iterations affordable under -race.
	maxCancel := int64(4096)
	if n := int64(full.Embeddings); n < maxCancel {
		maxCancel = n
	}

	// Two neighbour requests keep arriving beside the pool-path runs, so
	// yields fire both ways: a neighbour yields to each arriving run, and a
	// run past its slice yields to a neighbour's next arrival. Half the
	// neighbours' runs carry a short timeout, so some stop with re-queued
	// blocks in their deques. The light neighbour is a second plan sharing
	// the pool; the heavy one is the cancelled runs' own plan, whose block
	// tasks expand long enough that a worker is still attached to it when a
	// run arrives. At GOMAXPROCS 1 the light one alone never yields: a
	// submitter runs as soon as its request drains, so runs arrive only
	// while its workers sit between quanta.
	light := morselWorkload(t, 5, 3)
	stopLight := startNeighbour(t, pool, light, engine.Run(light, engine.Options{Workers: 2}).Embeddings, 7)
	defer stopLight()
	stopHeavy := startNeighbour(t, pool, p, full.Embeddings, 8)
	defer stopHeavy()

	for i := 0; i < runs; i++ {
		cancelAt := 1 + uint64(rng.Int63n(maxCancel))
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Uint64
		opts := engine.Options{
			Workers: 1 + i%4,
			Context: ctx,
			OnGroup: hgtest.RowsOf(func(worker int, m []hypergraph.EdgeID) {
				if seen.Add(1) == cancelAt {
					cancel()
				}
			}),
		}
		var res engine.Result
		if i%2 == 0 {
			res = engine.Run(p, opts)
		} else {
			res = pool.Submit(p, opts)
		}
		cancel()
		if res.LeakedBlocks != 0 {
			t.Fatalf("run %d (cancel@%d): leaked %d blocks", i, cancelAt, res.LeakedBlocks)
		}
	}
	if pool.Stats().Yields == 0 {
		t.Error("no yield fired beside the neighbours")
	}
}

// startNeighbour submits plan to pool in a loop until the returned stop
// is called, half the runs with a timeout of up to 4 ms, and fails t if a
// run leaks a block or a run without a timeout misses any of full's
// embeddings.
func startNeighbour(t *testing.T, pool *engine.Pool, plan *core.Plan, full uint64, seed int64) (stop func()) {
	done := make(chan struct{})
	neighbour := make(chan error, 1)
	go func() {
		nrng := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-done:
				neighbour <- nil
				return
			default:
			}
			var opts engine.Options
			if nrng.Intn(2) == 0 {
				opts.Timeout = time.Duration(1 + nrng.Int63n(int64(4*time.Millisecond)))
			}
			res := pool.Submit(plan, opts)
			if res.LeakedBlocks != 0 || (!res.TimedOut && res.Embeddings != full) {
				neighbour <- fmt.Errorf("neighbour (timeout %v): %d embeddings, timed out %v, leaked %d blocks",
					opts.Timeout, res.Embeddings, res.TimedOut, res.LeakedBlocks)
				return
			}
		}
	}()
	return func() {
		close(done)
		if err := <-neighbour; err != nil {
			t.Error(err)
		}
	}
}

// TestPoolWakesSubmitter: a request that finishes beside a long one hands
// its submitter the processor at once. A pool of 2 at GOMAXPROCS 2 keeps a
// CPU-bound request running while sub-millisecond requests are submitted
// one after another; the median Submit of those must stay under 12 ms. Without
// a yield after the drained channel closes, the readied submitter waits on
// the closing worker's processor, which goes on into the long request's
// tasks, until Go preempts it: ~20 ms a request. With the yield the median
// reads ~0.1 ms alone and 3–4 ms beside the rest of the suite on two cores.
// The bound sits well above a loaded run and well below the preemption
// stall, so scheduling noise on a busy machine does not fail it. It is
// checked only without -race, whose instrumentation slows the light
// requests themselves.
func TestPoolWakesSubmitter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// ~900 seeds and ~16M embeddings, ~350 ms at two workers: both
	// workers stay busy in its tasks and never go idle.
	rng := rand.New(rand.NewSource(11))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{NumVertices: 100, NumEdges: 2000, NumLabels: 1, MaxArity: 3})
	heavy, err := core.NewPlan(hgtest.ConnectedQueryFromWalk(rng, h, 4), h)
	if err != nil {
		t.Fatal(err)
	}
	light, err := core.NewPlan(hgtest.Fig1Query(), hgtest.Fig1Data())
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewPool(2)
	defer pool.Close()

	stop := make(chan struct{})
	heavyDone := make(chan struct{})
	go func() {
		defer close(heavyDone)
		for {
			select {
			case <-stop:
				return
			default:
				pool.Submit(heavy, engine.Options{})
			}
		}
	}()
	for pool.Stats().Active == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	time.Sleep(20 * time.Millisecond) // well into the heavy run

	const n = 31
	walls := make([]time.Duration, n)
	for i := range walls {
		start := time.Now()
		if res := pool.Submit(light, engine.Options{}); res.Embeddings != 2 || res.Err != nil {
			t.Fatalf("light request %d: %d embeddings, err %v; want 2", i, res.Embeddings, res.Err)
		}
		walls[i] = time.Since(start)
	}
	close(stop)
	<-heavyDone

	slices.Sort(walls)
	median := walls[n/2]
	t.Logf("light Submit beside a running request: median %v, min %v, max %v", median, walls[0], walls[n-1])
	if !raceEnabled && median > 12*time.Millisecond {
		t.Errorf("light Submit median %v beside a running request, want under 12ms (walls %v)", median, walls)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
