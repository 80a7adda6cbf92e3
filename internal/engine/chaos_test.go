package engine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// chaosScale reports how hard the randomized fault batteries should push:
// the dedicated CI chaos job sets HGMATCH_CHAOS=1 and gets the full
// 500+-fault sweep; the default test pass runs a fast smoke slice of the
// same code so the containment contract never goes untested.
func chaosScale(full, smoke int) int {
	if os.Getenv("HGMATCH_CHAOS") != "" {
		return full
	}
	return smoke
}

// sortedEmbeddings collects every embedding of a run into a canonical
// sorted form, so two runs can be compared byte-for-byte regardless of
// worker interleaving.
func sortedEmbeddings(run func(opts engine.Options) engine.Result, base engine.Options) ([]string, engine.Result) {
	var out []string
	base.OnGroup = hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
		out = append(out, fmt.Sprint(m))
	})
	res := run(base)
	sort.Strings(out)
	return out, res
}

// TestChaosSoloPanics sweeps randomized panic-injection targets across the
// fault-point sequence of a lone request (Run's pool of one). Every
// poisoned run must report ErrRequestPoisoned with a captured stack and
// zero leaked blocks; every run whose target lay beyond the points actually
// crossed must be indistinguishable from a clean run.
func TestChaosSoloPanics(t *testing.T) {
	p := morselWorkload(t, 21, 3)
	counter := &hgtest.FaultCounter{}
	baseline := engine.Run(p, engine.Options{Workers: 4, FaultHook: counter.Hook})
	if baseline.Err != nil || counter.Total() == 0 {
		t.Fatalf("counting run failed: err=%v points=%d", baseline.Err, counter.Total())
	}
	rng := rand.New(rand.NewSource(1))
	iters := chaosScale(140, 24)
	fired := 0
	for i := 0; i < iters; i++ {
		// Draw from the lower 3/4 of the counted range so most targets are
		// reachable despite run-to-run task-count jitter.
		inj := &hgtest.PanicInjector{Target: 1 + rng.Int63n(max64(1, counter.Total()*3/4))}
		res := engine.Run(p, engine.Options{
			Workers:   1 + rng.Intn(8),
			FaultHook: inj.Hook,
		})
		if res.LeakedBlocks != 0 {
			t.Fatalf("iter %d (target %d): leaked %d blocks", i, inj.Target, res.LeakedBlocks)
		}
		if inj.Fired() {
			fired++
			if !errors.Is(res.Err, engine.ErrRequestPoisoned) {
				t.Fatalf("iter %d: fired but err=%v", i, res.Err)
			}
			var pe *engine.PoisonedError
			if !errors.As(res.Err, &pe) || len(pe.Stack) == 0 || pe.Point == "" {
				t.Fatalf("iter %d: poisoned error lacks stack/point: %+v", i, pe)
			}
		} else if res.Err != nil {
			t.Fatalf("iter %d: no fault fired but err=%v", i, res.Err)
		} else if res.Embeddings != baseline.Embeddings {
			t.Fatalf("iter %d: clean run found %d, want %d", i, res.Embeddings, baseline.Embeddings)
		}
	}
	if fired < iters/2 {
		t.Errorf("only %d/%d injections fired; battery lost its teeth", fired, iters)
	}
	t.Logf("solo battery: %d/%d faults fired", fired, iters)
}

// TestChaosPointLabels pins that each instrumented point label can be hit
// in isolation and is contained: a panic thrown from inside block
// expansion or the sink unwinds through held-block cleanup with nothing
// leaked.
func TestChaosPointLabels(t *testing.T) {
	p := morselWorkload(t, 9, 3)
	rng := rand.New(rand.NewSource(2))
	perPoint := chaosScale(40, 6)
	for _, point := range []string{"task", "expand", "sink"} {
		counter := &hgtest.FaultCounter{}
		engine.Run(p, engine.Options{Workers: 4, FaultHook: counter.Hook})
		n := counter.Count(point)
		if n == 0 {
			t.Fatalf("point %q never crossed", point)
		}
		for i := 0; i < perPoint; i++ {
			inj := &hgtest.PanicInjector{Point: point, Target: 1 + rng.Int63n(max64(1, n*3/4))}
			res := engine.Run(p, engine.Options{Workers: 1 + rng.Intn(6), FaultHook: inj.Hook})
			if res.LeakedBlocks != 0 {
				t.Fatalf("point %q iter %d: leaked %d blocks", point, i, res.LeakedBlocks)
			}
			if inj.Fired() {
				var pe *engine.PoisonedError
				if !errors.As(res.Err, &pe) {
					t.Fatalf("point %q iter %d: fired but err=%v", point, i, res.Err)
				}
				if pe.Point != point && pe.Point != "task" {
					// expand/sink panics unwind to the task boundary, so the
					// recorded point is the injected one or the enclosing task.
					t.Fatalf("point %q iter %d: recorded point %q", point, i, pe.Point)
				}
			}
		}
	}
}

// TestChaosPoolIsolation runs victim requests with injected panics
// concurrently with clean bystander requests on one shared pool, each
// bystander made to yield to its victim. The bystanders' embedding streams
// must be byte-identical to their baseline, the pool must keep serving
// after every fault, and its cumulative recovered-panic counter must match
// the faults that fired.
func TestChaosPoolIsolation(t *testing.T) {
	victim := morselWorkload(t, 11, 3)
	bystander := morselWorkload(t, 5, 3)
	pool := engine.NewPool(6)
	defer pool.Close()

	baseWant, baseRes := sortedEmbeddings(func(o engine.Options) engine.Result {
		return pool.Submit(bystander, o)
	}, engine.Options{Workers: 3})
	if baseRes.Err != nil {
		t.Fatalf("baseline bystander: %v", baseRes.Err)
	}
	counter := &hgtest.FaultCounter{}
	if res := pool.Submit(victim, engine.Options{Workers: 3, FaultHook: counter.Hook}); res.Err != nil {
		t.Fatalf("counting victim: %v", res.Err)
	}

	rng := rand.New(rand.NewSource(3))
	rounds := chaosScale(60, 8)
	var fired int
	for i := 0; i < rounds; i++ {
		inj := &hgtest.PanicInjector{Target: 1 + rng.Int63n(max64(1, counter.Total()*3/4))}
		// The bystander parks at its first row until its slice is over and
		// the victim has registered, so it resumes due to yield while the
		// victim runs: every round re-queues bystander rows beside a
		// faulting neighbour.
		before, yields := pool.Stats().Submitted, pool.Stats().Yields
		parked, gate := make(chan struct{}), make(chan struct{})
		var park sync.Once
		var got []string
		var bres engine.Result
		bdone := make(chan struct{})
		go func() {
			defer close(bdone)
			got, bres = sortedEmbeddings(func(o engine.Options) engine.Result {
				group := o.OnGroup
				o.OnGroup = func(w int, prefix, last []hypergraph.EdgeID) {
					park.Do(func() { close(parked); <-gate })
					group(w, prefix, last)
				}
				return pool.Submit(bystander, o)
			}, engine.Options{Workers: 2})
		}()
		<-parked
		time.Sleep(2 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(1)
		var vres engine.Result
		go func() {
			defer wg.Done()
			vres = pool.Submit(victim, engine.Options{Workers: 2, FaultHook: inj.Hook})
		}()
		for pool.Stats().Submitted < before+2 {
			time.Sleep(20 * time.Microsecond)
		}
		close(gate)
		<-bdone
		wg.Wait()
		if bres.Err != nil || bres.LeakedBlocks != 0 {
			t.Fatalf("round %d: bystander err=%v leaked=%d", i, bres.Err, bres.LeakedBlocks)
		}
		if pool.Stats().Yields == yields {
			t.Fatalf("round %d: the parked bystander did not yield", i)
		}
		if strings.Join(got, "\n") != strings.Join(baseWant, "\n") {
			t.Fatalf("round %d: bystander stream diverged beside a poisoned request", i)
		}
		if vres.LeakedBlocks != 0 {
			t.Fatalf("round %d: victim leaked %d blocks", i, vres.LeakedBlocks)
		}
		if inj.Fired() {
			fired++
			if !errors.Is(vres.Err, engine.ErrRequestPoisoned) {
				t.Fatalf("round %d: fired but victim err=%v", i, vres.Err)
			}
		}
	}
	if got := pool.Stats().PanicsRecovered; got != uint64(fired) {
		t.Errorf("pool recovered %d panics, %d faults fired", got, fired)
	}
	// The pool must still drain cleanly: a final clean submit succeeds.
	if res := pool.Submit(bystander, engine.Options{Workers: 4}); res.Err != nil || res.Embeddings != baseRes.Embeddings {
		t.Fatalf("pool degraded after chaos: err=%v n=%d want %d", res.Err, res.Embeddings, baseRes.Embeddings)
	}
	t.Logf("pool battery: %d/%d faults fired", fired, rounds)
}

// TestChaosSinkCallbackPanic covers the other panic source: the caller's
// own embedding callback blowing up must be contained as a poisoned request
// with nothing leaked.
func TestChaosSinkCallbackPanic(t *testing.T) {
	p := morselWorkload(t, 7, 3)
	n := 0
	res := engine.Run(p, engine.Options{
		Workers: 4,
		OnGroup: hgtest.SerialRowsOf(func(m []hypergraph.EdgeID) {
			if n++; n == 100 {
				panic("callback exploded")
			}
		}),
	})
	if !errors.Is(res.Err, engine.ErrRequestPoisoned) {
		t.Fatalf("err=%v", res.Err)
	}
	if res.LeakedBlocks != 0 {
		t.Fatalf("leaked %d blocks", res.LeakedBlocks)
	}
	var pe *engine.PoisonedError
	if !errors.As(res.Err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "callback exploded") {
		t.Fatalf("wrong poison payload %v", res.Err)
	}
}

// TestChaosBudgetSweep drives randomized per-request memory budgets from
// "refuses immediately" up through "never binds". Every aborted run must
// carry ErrBudgetExceeded and leak nothing; every admitted run must be
// exact.
func TestChaosBudgetSweep(t *testing.T) {
	p := morselWorkload(t, 13, 3)
	blockBytes := int64(engine.TaskBlockBytes(p))
	want := engine.Run(p, engine.Options{Workers: 4})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	rng := rand.New(rand.NewSource(4))
	iters := chaosScale(60, 10)
	aborted := 0
	for i := 0; i < iters; i++ {
		// The task scheduler's live set peaks at ~2 blocks on this
		// workload, so 0–6 blocks of budget straddles the bind point:
		// below-peak budgets must abort, above-peak budgets must be exact.
		budget := 1 + rng.Int63n(blockBytes*6)
		res := engine.Run(p, engine.Options{
			Workers:   1 + rng.Intn(6),
			MaxMemory: budget,
		})
		if res.LeakedBlocks != 0 {
			t.Fatalf("iter %d (budget %d): leaked %d blocks", i, budget, res.LeakedBlocks)
		}
		switch {
		case res.Err == nil:
			if res.Embeddings != want.Embeddings {
				t.Fatalf("iter %d (budget %d): got %d want %d", i, budget, res.Embeddings, want.Embeddings)
			}
		case errors.Is(res.Err, engine.ErrBudgetExceeded):
			aborted++
		default:
			t.Fatalf("iter %d (budget %d): unexpected err %v", i, budget, res.Err)
		}
	}
	if aborted == 0 || aborted == iters {
		t.Errorf("sweep never straddled the bind point: %d/%d aborted", aborted, iters)
	}
	t.Logf("budget battery: %d/%d aborted", aborted, iters)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
