package engine_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"hgmatch/internal/core"
	"hgmatch/internal/datagen"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/querygen"
)

// TestPoolConcurrentMixedRequests: bursts of 8 to 20 requests of mixed
// plans and worker caps submitted at once on one pool, so that their
// registrations race, each answering the oracle's rows with nothing
// leaked, and the pool counting each as submitted and completed.
func TestPoolConcurrentMixedRequests(t *testing.T) {
	poolModel(t, pmPlan{from: 2801, to: 2804, rounds: 20, ops: "workers rows burst", must: "concurrent burst"})
}

// TestPoolParkFreesWorkers: a request parks itself mid-run through its park
// switch and stays parked until every neighbour has finished, so a park
// that held a worker hangs the round. While it is parked each worker that
// served it delivers at most the group in hand, and no worker picks it
// again; once unparked it answers the oracle's rows, a capped one the
// oracle's first Limit rows in order, with nothing leaked.
func TestPoolParkFreesWorkers(t *testing.T) {
	poolModel(t, pmPlan{from: 3801, to: 3808, rounds: 20, ops: "park rows workers limit nostl solo block burst", must: "park park-ordered park-beside burst nostl-wide"})
}

// TestPoolCancelIsolation: requests cancelled mid-run share the pool with
// others, which answer the oracle's rows, in rounds where yields fire; the
// cancelled ones stop and leak nothing, and the pool keeps serving.
func TestPoolCancelIsolation(t *testing.T) {
	poolModel(t, pmPlan{from: 2901, to: 2904, rounds: 20, ops: "cancel rows workers block big", must: "cancelled beside-fault concurrent yield-beside-cancel"})
}

// TestPoolLimitAndAggregate: on the shared pool a capped run delivers the
// oracle's first Limit rows on worker 0, a capped aggregation counts
// exactly those rows, and an uncapped one the oracle's groups.
func TestPoolLimitAndAggregate(t *testing.T) {
	poolModel(t, pmPlan{from: 3001, to: 3004, rounds: 15, ops: "limit aggregate rows", must: "ordered aggregate limit-count"})
}

// TestPoolNoStealingAndClose: a NOSTL request runs natively beside
// stealing ones with the exact answer and no steal, and a Submit after
// Close is refused with ErrPoolClosed, which wraps hgio.ErrShuttingDown.
func TestPoolNoStealingAndClose(t *testing.T) {
	poolModel(t, pmPlan{from: 3101, to: 3104, rounds: 10, ops: "nostl", must: "nostl closed"})
}

// TestPoolReleasesPlanAndGraph: the Scratches a shared pool's workers keep
// from one request to the next carry no state of a finished request, and
// neither do the pool's request lists, so once its Submit returns and the
// workers go idle, its plan and data graph are collectable while the pool
// stays open. (A worker may still be on its way to idle when Submit
// returns, so the GC is retried for up to two seconds.)
func TestPoolReleasesPlanAndGraph(t *testing.T) {
	pool := engine.NewPool(2)
	defer pool.Close()
	sb, _ := datagen.ProfileByName("SB")
	h := datagen.Generate(sb.Scaled(0.2), 3)
	s, _ := querygen.SettingByName("q3")
	q := querygen.SampleMany(rand.New(rand.NewSource(1)), h, s, 1)[0]
	p, err := core.NewPlan(q, h)
	if err != nil {
		t.Fatal(err)
	}
	if res := pool.Submit(p, engine.Options{}); res.Err != nil || res.Embeddings == 0 {
		t.Fatalf("Submit: %d embeddings, %v: nothing was kept to release", res.Embeddings, res.Err)
	}
	wp, wh := weak.Make(p), weak.Make(h)
	p, h, q = nil, nil, nil
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if wp.Value() == nil && wh.Value() == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after a request on an open pool and 2 s of GCs, plan reachable=%v, graph reachable=%v",
				wp.Value() != nil, wh.Value() != nil)
		}
	}
}

// TestRunJoinsItsPool: Run is a pool of one request, so every call starts
// a Pool and joins its workers before returning: after runs of every shape
// beside the shared pool, and its Close, no goroutine is left behind.
func TestRunJoinsItsPool(t *testing.T) {
	poolModel(t, pmPlan{from: 3201, to: 3204, rounds: 15, ops: "solo limit scan", must: "solo closed"})
}

// TestLeakDetectorRandomizedCancel is the block-leak audit: ~1000 runs
// cancelled after k groups (many inside the big query's blocks), timed out
// or pre-cancelled, solo and pooled, in bursts and beside neighbours that
// answer exactly in rounds where yields fire, each report LeakedBlocks 0.
// A single unreleased block on any cancel path fails it.
func TestLeakDetectorRandomizedCancel(t *testing.T) {
	poolModel(t, pmPlan{from: 3301, to: 3304, rounds: 55, ops: "cancel timeout block rows solo workers big burst stop",
		must: "cancelled stopped-partial timed-out pre-cancelled yield yield-beside-cancel"})
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
