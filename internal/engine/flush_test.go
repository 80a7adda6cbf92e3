package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
)

// checkFlushed asserts what every finished run owes its caller, however it
// ended: the per-worker stats were merged (each embedding the run reports
// was sunk by exactly one worker, and the work is attributed), and no block
// is still accounted live.
func checkFlushed(t *testing.T, name string, res engine.Result) {
	t.Helper()
	var sunk, tasks uint64
	var busy time.Duration
	for _, w := range res.Workers {
		sunk += w.SinkCount
		tasks += w.Tasks
		busy += w.BusyTime
		if w.Stolen < w.Steals {
			t.Errorf("%s: worker reports %d steals but only %d stolen tasks", name, w.Steals, w.Stolen)
		}
	}
	if sunk != res.Embeddings {
		t.Errorf("%s: workers sank %d embeddings, run reports %d", name, sunk, res.Embeddings)
	}
	if tasks == 0 || busy <= 0 {
		t.Errorf("%s: stats lost at detach: %d tasks, %v busy", name, tasks, busy)
	}
	if res.LeakedBlocks != 0 {
		t.Errorf("%s: leaked %d blocks", name, res.LeakedBlocks)
	}
}

// TestCounterFlush: workers count into private state and merge it into the
// request when they detach. The merge must happen on every way out of a run
// — clean, limit-trimmed, cancelled, poisoned — solo and on the shared pool.
func TestCounterFlush(t *testing.T) {
	p := morselWorkload(t, 7, 5) // ~1.3M embeddings: long enough to cancel mid-run
	pool := engine.NewPool(4)
	defer pool.Close()
	runners := []struct {
		name string
		run  func(engine.Options) engine.Result
	}{
		{"solo", func(o engine.Options) engine.Result { o.Workers = 4; return engine.Run(p, o) }},
		{"pool", func(o engine.Options) engine.Result { return pool.Submit(p, o) }},
	}
	for _, r := range runners {
		full := r.run(engine.Options{})
		checkFlushed(t, r.name+"/count-only", full)
		if full.Embeddings < 10_000 {
			t.Skipf("workload too small (%d embeddings)", full.Embeddings)
		}

		// The count-only leaf is an optimisation of the sink, not a
		// different answer: a run that sinks every embedding into a no-op
		// callback reports the same count and the same kernel counters.
		sunk := r.run(engine.Options{OnEmbeddingWorker: func(int, []hypergraph.EdgeID) {}})
		checkFlushed(t, r.name+"/callback", sunk)
		if sunk.Embeddings != full.Embeddings || sunk.Counters != full.Counters {
			t.Errorf("%s: count-only run found %d %+v, callback run %d %+v",
				r.name, full.Embeddings, full.Counters, sunk.Embeddings, sunk.Counters)
		}

		limited := r.run(engine.Options{Limit: full.Embeddings / 3})
		checkFlushed(t, r.name+"/limit", limited)
		if limited.Embeddings != full.Embeddings/3 {
			t.Errorf("%s: limit %d, got %d", r.name, full.Embeddings/3, limited.Embeddings)
		}

		ctx, cancel := context.WithTimeout(context.Background(), sunk.Elapsed/8)
		cancelled := r.run(engine.Options{Context: ctx})
		cancel()
		checkFlushed(t, r.name+"/cancelled", cancelled)
		if !cancelled.TimedOut || cancelled.Embeddings >= full.Embeddings {
			t.Errorf("%s: run cancelled after %v of ~%v: timed_out=%v, %d of %d embeddings",
				r.name, sunk.Elapsed/8, sunk.Elapsed, cancelled.TimedOut, cancelled.Embeddings, full.Embeddings)
		}

		inj := &hgtest.PanicInjector{Target: int64(full.Embeddings / 2)}
		poisoned := r.run(engine.Options{FaultHook: func(point string) {
			if point == "sink" {
				inj.Hook(point)
			}
		}})
		checkFlushed(t, r.name+"/poisoned", poisoned)
		if !errors.Is(poisoned.Err, engine.ErrRequestPoisoned) || poisoned.Embeddings == 0 {
			t.Errorf("%s: poisoned run: err=%v embeddings=%d", r.name, poisoned.Err, poisoned.Embeddings)
		}
	}
}
