package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hgtest"
	"hgmatch/internal/hypergraph"
	"hgmatch/internal/querygen"
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
		sunk := r.run(engine.Options{OnGroup: hgtest.RowsOf(func(int, []hypergraph.EdgeID) {})})
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

		var sinks hgtest.FaultCounter
		r.run(engine.Options{FaultHook: sinks.Hook})
		inj := &hgtest.PanicInjector{Target: sinks.Count("sink") / 2}
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

// groupTrace records what a run delivered, per worker and in delivery order,
// with every embedding flattened to one string. Workers call concurrently
// but each owns its slot, which is the contract the callbacks state.
type groupTrace struct {
	rows   [][]string
	groups []int // OnGroup calls per worker
	widest []int // longest run per worker
}

func newGroupTrace(workers int) *groupTrace {
	return &groupTrace{rows: make([][]string, workers), groups: make([]int, workers), widest: make([]int, workers)}
}

func (g *groupTrace) onRow(w int, m []hypergraph.EdgeID) {
	g.rows[w] = append(g.rows[w], fmt.Sprint(m))
}

func (g *groupTrace) onGroup(w int, prefix, last []hypergraph.EdgeID) {
	g.groups[w]++
	if len(last) > g.widest[w] {
		g.widest[w] = len(last)
	}
	m := append(append([]hypergraph.EdgeID(nil), prefix...), 0)
	for _, c := range last {
		m[len(prefix)] = c
		g.onRow(w, m)
	}
}

// total returns every delivered row sorted (the multiset), the number of
// OnGroup calls and the longest run.
func (g *groupTrace) total() (rows []string, groups, widest int) {
	for w := range g.rows {
		rows = append(rows, g.rows[w]...)
		groups += g.groups[w]
		if g.widest[w] > widest {
			widest = g.widest[w]
		}
	}
	slices.Sort(rows)
	return rows, groups, widest
}

// TestGroupCallbackEquivalence: OnGroup hands over the last EXPAND's
// candidate set whole, and a row consumer (hgtest.RowsOf) sees it row by
// row. On random querygen queries of 1-4 hyperedges, solo and pooled, both
// must deliver the same multiset, the same kernel counters and — where one
// worker makes delivery order a fact — the same sequence; and every option
// that looks at single rows must hand the group callback exactly the rows
// it keeps.
func TestGroupCallbackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	h := hgtest.RandomHypergraph(rng, hgtest.RandomConfig{
		NumVertices: 30, NumEdges: 200, NumLabels: 1, MaxArity: 3,
	})
	pool1, pool4 := engine.NewPool(1), engine.NewPool(4)
	defer pool1.Close()
	defer pool4.Close()
	runners := []struct {
		name    string
		workers int // callback worker indexes range over [0, workers)
		run     func(*core.Plan, engine.Options) engine.Result
	}{
		{"solo1", 1, func(p *core.Plan, o engine.Options) engine.Result { o.Workers = 1; return engine.Run(p, o) }},
		{"solo4", 4, func(p *core.Plan, o engine.Options) engine.Result { o.Workers = 4; return engine.Run(p, o) }},
		{"pool1", 1, pool1.Submit},
		{"pool4", 4, pool4.Submit},
	}
	sawRun, cases, rowsSeen := false, 0, 0
	for nq := 1; nq <= 4; nq++ {
		for i := 0; i < 4; i++ {
			q := querygen.Sample(rng, h, querygen.Setting{NumEdges: nq, MinVertices: 1, MaxVertices: 64})
			if q == nil {
				continue
			}
			p, err := core.NewPlan(q, h)
			if err != nil {
				t.Fatal(err)
			}
			if n := engine.Run(p, engine.Options{Workers: 2}).Embeddings; n == 0 || n > 12_000 {
				continue
			}
			cases++
			for _, r := range runners {
				name := fmt.Sprintf("nq%d/q%d/%s", nq, i, r.name)
				byRow, byRun := newGroupTrace(r.workers), newGroupTrace(r.workers)
				want := r.run(p, engine.Options{OnGroup: hgtest.RowsOf(byRow.onRow)})
				got := r.run(p, engine.Options{OnGroup: byRun.onGroup})
				checkFlushed(t, name, got)
				if got.Embeddings != want.Embeddings || got.Counters != want.Counters || got.Err != nil {
					t.Fatalf("%s: group run %d %+v err=%v, row run %d %+v", name, got.Embeddings, got.Counters, got.Err, want.Embeddings, want.Counters)
				}
				if r.workers == 1 && !slices.Equal(byRun.rows[0], byRow.rows[0]) {
					t.Fatalf("%s: one worker delivered the rows in a different order by group", name)
				}
				wantRows, _, _ := byRow.total()
				gotRows, groups, widest := byRun.total()
				if !slices.Equal(gotRows, wantRows) || uint64(len(gotRows)) != got.Embeddings {
					t.Fatalf("%s: group run delivered %d rows for %d embeddings, row run %d", name, len(gotRows), got.Embeddings, len(wantRows))
				}
				sawRun = sawRun || widest > 1
				rowsSeen += len(gotRows)
				if uint64(groups) > got.Embeddings {
					t.Fatalf("%s: %d groups for %d embeddings", name, groups, got.Embeddings)
				}

				// Options that look at single rows narrow each group to the
				// rows they keep; OnGroup sees exactly those rows.
				singles := func(what string, o engine.Options) (engine.Result, []string, *groupTrace) {
					tr := newGroupTrace(r.workers)
					o.OnGroup = tr.onGroup
					res := r.run(p, o)
					checkFlushed(t, name+"/"+what, res)
					rows, groups, _ := tr.total()
					if uint64(len(rows)) != res.Embeddings || uint64(groups) > res.Embeddings {
						t.Fatalf("%s/%s: %d groups delivered %d rows for %d embeddings",
							name, what, groups, len(rows), res.Embeddings)
					}
					return res, rows, tr
				}
				limit := want.Embeddings/2 + 1
				if res, _, _ := singles("limit", engine.Options{Limit: limit}); res.Embeddings != limit {
					t.Fatalf("%s: limit %d kept %d", name, limit, res.Embeddings)
				}
				odd := func(m []hypergraph.EdgeID) bool { return m[len(m)-1]%2 == 1 }
				oddByRow := newGroupTrace(r.workers)
				r.run(p, engine.Options{Filter: odd, OnGroup: hgtest.RowsOf(oddByRow.onRow)})
				wantOdd, _, _ := oddByRow.total()
				if _, rows, _ := singles("filter", engine.Options{Filter: odd}); !slices.Equal(rows, wantOdd) {
					t.Fatalf("%s: filter kept %d rows, want %d", name, len(rows), len(wantOdd))
				}
				// A capped filtered run keeps the first n passing rows of the
				// sequential order, in that order, on worker 0.
				var seqOdd []string
				p.EnumerateSequential(func(m []hypergraph.EdgeID) {
					if odd(m) {
						seqOdd = append(seqOdd, fmt.Sprint(m))
					}
				})
				n := len(seqOdd)/2 + 1
				res, _, tr := singles("filter+limit", engine.Options{Filter: odd, Limit: uint64(n)})
				if n = min(n, len(seqOdd)); res.Embeddings != uint64(n) || !slices.Equal(tr.rows[0], seqOdd[:n]) {
					t.Fatalf("%s: filter+limit kept %d rows (%d delivered on worker 0), want the first %d passing rows",
						name, res.Embeddings, len(tr.rows[0]), n)
				}
				res, rows, _ := singles("aggregate", engine.Options{Aggregate: func(m []hypergraph.EdgeID) string { return fmt.Sprint(m[0] % 3) }})
				var grouped uint64
				for _, n := range res.Groups {
					grouped += n
				}
				if grouped != want.Embeddings || !slices.Equal(rows, wantRows) {
					t.Fatalf("%s: aggregate counted %d of %d embeddings", name, grouped, want.Embeddings)
				}
				var hooks hgtest.FaultCounter
				_, _, tr = singles("faulthook", engine.Options{FaultHook: hooks.Hook})
				if _, groups, _ := tr.total(); hooks.Count("sink") != int64(groups) {
					t.Fatalf("%s: sink hook fired %d times for %d groups", name, hooks.Count("sink"), groups)
				}
			}
		}
	}
	t.Logf("%d queries, %d rows compared", cases, rowsSeen)
	if !sawRun || cases < 8 {
		t.Fatalf("%d queries compared, run wider than one seen: %v — the fixture no longer exercises the group path", cases, sawRun)
	}
}

// TestGroupCallbackAbnormalRuns: a run that streams by group still ends the
// way every run must when it is cancelled mid-stream or its callback panics.
func TestGroupCallbackAbnormalRuns(t *testing.T) {
	p := morselWorkload(t, 7, 5)
	pool := engine.NewPool(4)
	defer pool.Close()
	for _, r := range []struct {
		name string
		run  func(engine.Options) engine.Result
	}{
		{"solo", func(o engine.Options) engine.Result { o.Workers = 4; return engine.Run(p, o) }},
		{"pool", func(o engine.Options) engine.Result { return pool.Submit(p, o) }},
	} {
		var rows atomic.Uint64
		count := func(_ int, _, last []hypergraph.EdgeID) { rows.Add(uint64(len(last))) }
		full := r.run(engine.Options{OnGroup: count})
		checkFlushed(t, r.name+"/full", full)
		if rows.Load() != full.Embeddings || full.Embeddings < 10_000 {
			t.Fatalf("%s: delivered %d of %d embeddings", r.name, rows.Load(), full.Embeddings)
		}

		rows.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := r.run(engine.Options{Context: ctx, OnGroup: func(w int, prefix, last []hypergraph.EdgeID) {
			if count(w, prefix, last); rows.Load() > full.Embeddings/4 {
				cancel()
			}
		}})
		cancel()
		checkFlushed(t, r.name+"/cancelled", cancelled)
		if !cancelled.TimedOut || cancelled.Embeddings >= full.Embeddings || rows.Load() != cancelled.Embeddings {
			t.Errorf("%s: cancelled run: timed_out=%v, reports %d, delivered %d of %d",
				r.name, cancelled.TimedOut, cancelled.Embeddings, rows.Load(), full.Embeddings)
		}

		rows.Store(0)
		poisoned := r.run(engine.Options{OnGroup: func(w int, prefix, last []hypergraph.EdgeID) {
			if count(w, prefix, last); rows.Load() > full.Embeddings/4 {
				panic("group consumer failed")
			}
		}})
		checkFlushed(t, r.name+"/poisoned", poisoned)
		if !errors.Is(poisoned.Err, engine.ErrRequestPoisoned) || poisoned.Embeddings == 0 || poisoned.Embeddings >= full.Embeddings {
			t.Errorf("%s: poisoned run: err=%v embeddings=%d of %d", r.name, poisoned.Err, poisoned.Embeddings, full.Embeddings)
		}
	}
}
