package shard

import (
	"context"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"hgmatch/internal/core"
	"hgmatch/internal/engine"
	"hgmatch/internal/hypergraph"
)

// unitEdges is the scatter granularity: how many SCAN candidates one
// sub-run seeds. Unit boundaries depend only on the scan order, never on
// the shard count, so the merged stream — per-unit sorted rows
// concatenated in ascending unit order — is byte-identical for every N
// (the golden battery's cross-shard-count pin). 1024 seeds amortise a
// Pool.Submit round-trip over thousands of expansions while still
// yielding enough units to overlap on the pool.
const unitEdges = 1024

// gatherWindow bounds, in units per concurrent lane, how far the parallel
// gather may run ahead of the in-order flush cursor. A slow unit 0 can
// therefore pin at most window×lanes completed units in memory — not the
// whole run — so a sharded /match whose result set streams fine unsharded
// cannot accumulate it wholesale under -shards.
const gatherWindow = 2

// emptyScan is the explicit empty seed set submitted for shards that own
// no SCAN candidate. A plan's whole start partition shares one signature
// table, so exactly one shard owns every seed; the other N-1 sub-runs
// must short-circuit without touching the engine — submitting them
// explicitly (rather than skipping) keeps that property exercised on
// every scattered request, not just in tests.
var emptyScan = []hypergraph.EdgeID{}

// Scatter fans one compiled plan out across g's shards on the shared pool
// and gathers one merged Result, semantically equivalent to a solo
// pool.Submit(p, opts) against the mirror:
//
//   - The owning shard's SCAN candidates are split into unitEdges-sized
//     units, each submitted as its own sub-run (Options.Scan); every
//     embedding is rooted at exactly one seed, so the union is exact.
//     Non-owner shards get explicit empty sub-runs that short-circuit.
//   - Counters, per-worker stats and LeakedBlocks are summed across
//     sub-runs; TimedOut ORs. PeakTasks/PeakTaskBytes merge by max on the
//     sequential (Limit) path, where units run back-to-back; the parallel
//     path runs up to Workers() units at once, so there the merged peak
//     is the sum of the largest per-unit peaks across that fan-out — a
//     conservative upper bound on the truly concurrent high-water mark.
//   - With callbacks or a Limit the per-unit embeddings are buffered,
//     sorted within the unit, and concatenated in unit order — a
//     deterministic total order — with callbacks replayed serially in
//     that order (OnEmbeddingWorker sees worker index 0, OnGroup worker 0
//     and groups of one — sorting dissolves the engine's runs). Under a
//     Limit, units run sequentially with early stop once the kept set reaches n;
//     the kept set is the canonical first n, identical for every shard
//     count, and Groups are recomputed from it. Without a Limit,
//     completed units flush to the callbacks as soon as every earlier
//     unit has flushed, and the gather holds at most a bounded window of
//     completed units (gatherWindow) — it never buffers the whole run.
//     Without callbacks or Limit, sub-runs stream nothing and Groups
//     merge by key sum.
//
// opts.Timeout is converted once into a context deadline stored back into
// opts.Context, shared by all sub-runs (a per-sub-run timeout would
// restart the clock on every unit); between units both paths stop
// scheduling new sub-runs once the deadline passes.
func Scatter(pool *engine.Pool, g *Graph, p *core.Plan, opts engine.Options) engine.Result {
	start := time.Now()
	scan := opts.Scan
	if scan == nil && !p.Empty {
		scan = p.InitialCandidates()
	}
	var res engine.Result
	if p.Empty || len(scan) == 0 {
		res.Elapsed = time.Since(start)
		return res
	}

	if opts.Timeout > 0 {
		ctx := opts.Context
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
		// Store the deadline back into opts: every sub-run below copies
		// opts, so this single assignment is what carries the bound into
		// runUnit and the empty-shard sub-runs.
		opts.Context, opts.Timeout = ctx, 0
	}
	ctx := opts.Context

	// Every seed comes from the plan's start partition — one signature
	// table — so one shard owns the entire scan.
	owner := g.OwnerOf(p.Data, scan[0])
	for s := 0; s < g.n; s++ {
		if s == owner {
			continue
		}
		sub := opts
		sub.Scan = emptyScan
		sub.OnEmbedding, sub.OnEmbeddingWorker, sub.OnGroup = nil, nil, nil
		mergeResult(&res, pool.Submit(p, sub))
	}

	units := make([][]hypergraph.EdgeID, 0, (len(scan)+unitEdges-1)/unitEdges)
	for lo := 0; lo < len(scan); lo += unitEdges {
		hi := lo + unitEdges
		if hi > len(scan) {
			hi = len(scan)
		}
		units = append(units, scan[lo:hi])
	}

	emit := func(m []hypergraph.EdgeID) {
		if opts.OnEmbeddingWorker != nil {
			opts.OnEmbeddingWorker(0, m)
		}
		if opts.OnGroup != nil {
			opts.OnGroup(0, m[:len(m)-1], m[len(m)-1:])
		}
		if opts.OnEmbedding != nil {
			opts.OnEmbedding(m)
		}
	}

	if opts.Limit > 0 {
		// Sequential with early stop: each unit is fully enumerated, so
		// the accumulated prefix is the canonical first-n regardless of
		// how many units (or shards) the run was split into. The buffer
		// is bounded by Limit plus one unit's overshoot, and additionally
		// by the request's memory budget.
		var kept [][]hypergraph.EdgeID
		rowBytes := gatherRowBytes(p)
		for _, u := range units {
			if ctxDone(ctx) {
				res.TimedOut = true
				break
			}
			sub, rows := runUnit(pool, p, &opts, u, true)
			mergeResult(&res, sub)
			if sub.Err != nil {
				// A faulted unit's rows are not the canonical prefix;
				// keep what earlier units produced and stop scattering.
				break
			}
			kept = append(kept, rows...)
			if opts.MaxMemory > 0 && int64(len(kept))*rowBytes > opts.MaxMemory {
				if res.Err == nil {
					res.Err = engine.ErrBudgetExceeded
				}
				break
			}
			if uint64(len(kept)) >= opts.Limit {
				break
			}
		}
		if uint64(len(kept)) > opts.Limit {
			kept = kept[:opts.Limit]
		}
		res.Embeddings = uint64(len(kept))
		if opts.Aggregate != nil {
			groups := make(map[string]uint64, 16)
			for _, m := range kept {
				groups[opts.Aggregate(m)]++
			}
			res.Groups = groups
		}
		// Gather: callbacks replay the merged stream serially in its
		// deterministic order. Worker index 0 — the gather phase is one
		// logical consumer, whatever parallelism produced the rows.
		for _, m := range kept {
			emit(m)
		}
	} else {
		res.TimedOut = res.TimedOut || scatterParallel(pool, p, &opts, units, &res, emit)
	}
	res.TimedOut = res.TimedOut || ctxDone(ctx)
	res.Elapsed = time.Since(start)
	return res
}

// scatterParallel runs the no-Limit path: up to pool.Workers() units in
// flight, flushed strictly in ascending unit order as they complete. The
// flush merges each unit's stats, streams its (already sorted) rows to the
// caller's callbacks, and drops them — so peak gather memory is the
// bounded run-ahead window, not the result set. Returns whether the run
// was cut short by ctx. Invariants the flush relies on:
//
//   - units are claimed in ascending order, so the started set is always
//     a contiguous prefix and the in-order cursor never stalls on a gap;
//   - a claimed unit always runs to completion (cancellation is checked
//     before claiming, and mid-unit cancellation is the engine's job), so
//     every started unit's stats are eventually flushed even on abort.
//
// Fault containment: a sub-run that returns Result.Err (poisoned,
// over-budget, pool closed) halts the claim loop — in-flight units finish
// and flush their stats, no new units start, and the first Err is the
// scatter's Err. The gather window's buffered rows are charged against
// opts.MaxMemory, and the flush — which runs the caller's emit callbacks
// under the gather lock — recovers a panicking callback instead of
// deadlocking the other lanes on that lock.
func scatterParallel(pool *engine.Pool, p *core.Plan, opts *engine.Options, units [][]hypergraph.EdgeID, res *engine.Result, emit func([]hypergraph.EdgeID)) (ctxStopped bool) {
	buffered := opts.OnEmbedding != nil || opts.OnEmbeddingWorker != nil || opts.OnGroup != nil
	ctx := opts.Context
	par := pool.Workers()
	if par > len(units) {
		par = len(units)
	}
	window := gatherWindow * par

	type unitOut struct {
		res  engine.Result
		rows [][]hypergraph.EdgeID
		done bool
	}
	outs := make([]unitOut, len(units))
	// Per-unit peaks of everything that flushed, for the stacked-peak
	// bound below.
	peakTasks := make([]int64, 0, len(units))
	peakBytes := make([]int64, 0, len(units))

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	next, flushed := 0, 0
	halt := false // stop claiming: ctx cancelled, sub-run Err, or budget
	var bufBytes int64
	rowBytes := gatherRowBytes(p)

	// flush records one completed unit and advances the in-order cursor,
	// streaming each flushable unit's rows. Callbacks may panic; the deferred
	// recover converts that into a poisoned scatter (halting claims) while
	// the deferred unlock keeps the gather lock releasable.
	flush := func(i int, r engine.Result, rows [][]hypergraph.EdgeID) {
		mu.Lock()
		defer mu.Unlock()
		defer func() {
			if rec := recover(); rec != nil {
				if res.Err == nil {
					res.Err = &engine.PoisonedError{Value: rec, Stack: debug.Stack(), Point: "gather"}
				}
				halt = true
				cond.Broadcast()
			}
		}()
		outs[i] = unitOut{res: r, rows: rows, done: true}
		if buffered {
			if bufBytes += int64(len(rows)) * rowBytes; opts.MaxMemory > 0 && bufBytes > opts.MaxMemory {
				if res.Err == nil {
					res.Err = engine.ErrBudgetExceeded
				}
				halt = true
			}
		}
		for flushed < len(units) && outs[flushed].done {
			o := &outs[flushed]
			mergeResult(res, o.res)
			mergeGroups(res, o.res.Groups)
			peakTasks = append(peakTasks, o.res.PeakTasks)
			peakBytes = append(peakBytes, o.res.PeakTaskBytes)
			if hook := opts.FaultHook; hook != nil {
				hook("gather")
			}
			if buffered {
				bufBytes -= int64(len(o.rows)) * rowBytes
				res.Embeddings += uint64(len(o.rows))
				for _, m := range o.rows {
					emit(m)
				}
			} else {
				res.Embeddings += o.res.Embeddings
			}
			*o = unitOut{}
			flushed++
		}
		if res.Err != nil {
			halt = true
		}
		cond.Broadcast()
	}

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for next < len(units) && next-flushed >= window && !halt {
					cond.Wait()
				}
				if next >= len(units) || halt {
					mu.Unlock()
					return
				}
				if ctxDone(ctx) {
					halt, ctxStopped = true, true
					cond.Broadcast()
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				r, rows := runUnit(pool, p, opts, units[i], buffered)

				flush(i, r, rows)
			}
		}()
	}
	wg.Wait()

	// mergeResult max-merged the peaks, which is right for sequential
	// sub-runs but under-reports here: up to par units were in flight at
	// once, their per-unit peaks stacking. Sum the par largest per-unit
	// peaks instead — a conservative upper bound on the concurrent
	// high-water mark (never below the max the empty-shard sub-runs
	// already folded in).
	if s := topSum(peakTasks, par); s > res.PeakTasks {
		res.PeakTasks = s
	}
	if s := topSum(peakBytes, par); s > res.PeakTaskBytes {
		res.PeakTaskBytes = s
	}
	return ctxStopped
}

// gatherRowBytes is the accounted size of one buffered gather row: a slice
// header plus |E(q)| edge IDs — the unit the gather window's memory budget
// is charged in.
func gatherRowBytes(p *core.Plan) int64 {
	return 24 + 4*int64(p.NumSteps())
}

// topSum sums the k largest values.
func topSum(vals []int64, k int) int64 {
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	if k > len(vals) {
		k = len(vals)
	}
	var s int64
	for _, v := range vals[:k] {
		s += v
	}
	return s
}

// runUnit submits one unit's sub-run. With buffering it swaps the caller's
// callbacks for a per-worker collector and returns the unit's rows sorted
// lexicographically; sub-run Limit and (under a coordinator Limit)
// Aggregate are stripped, since truncation and group recount happen on the
// merged stream.
func runUnit(pool *engine.Pool, p *core.Plan, opts *engine.Options, unit []hypergraph.EdgeID, buffered bool) (engine.Result, [][]hypergraph.EdgeID) {
	sub := *opts
	sub.Scan = unit
	if !buffered {
		return pool.Submit(p, sub), nil
	}
	sub.Limit = 0
	sub.OnEmbedding, sub.OnGroup = nil, nil
	if opts.Limit > 0 {
		sub.Aggregate = nil
	}
	per := make([][][]hypergraph.EdgeID, pool.Workers())
	sub.OnEmbeddingWorker = func(w int, m []hypergraph.EdgeID) {
		per[w] = append(per[w], append([]hypergraph.EdgeID(nil), m...))
	}
	r := pool.Submit(p, sub)
	var rows [][]hypergraph.EdgeID
	for _, ws := range per {
		rows = append(rows, ws...)
	}
	sortRows(rows)
	return r, rows
}

// mergeResult folds one sub-run's stats into the gathered result.
// Embeddings and Groups are intentionally NOT merged here — their
// semantics differ between the buffered and streaming paths, so the
// callers own them. Peaks merge by max, which the parallel path corrects
// for stacking after the fact (see scatterParallel). Err merges
// first-wins: the first faulted sub-run classifies the scatter.
func mergeResult(dst *engine.Result, sub engine.Result) {
	if dst.Err == nil {
		dst.Err = sub.Err
	}
	dst.Counters.Add(sub.Counters)
	for len(dst.Workers) < len(sub.Workers) {
		dst.Workers = append(dst.Workers, engine.WorkerStats{})
	}
	for i, ws := range sub.Workers {
		dst.Workers[i].Add(ws)
	}
	if sub.PeakTasks > dst.PeakTasks {
		dst.PeakTasks = sub.PeakTasks
	}
	if sub.PeakTaskBytes > dst.PeakTaskBytes {
		dst.PeakTaskBytes = sub.PeakTaskBytes
	}
	dst.TimedOut = dst.TimedOut || sub.TimedOut
	dst.LeakedBlocks += sub.LeakedBlocks
}

// mergeGroups key-sums a sub-run's AGGREGATE output (streaming path only).
func mergeGroups(dst *engine.Result, groups map[string]uint64) {
	if len(groups) == 0 {
		return
	}
	if dst.Groups == nil {
		dst.Groups = make(map[string]uint64, len(groups))
	}
	for k, v := range groups {
		dst.Groups[k] += v
	}
}

// sortRows orders embeddings lexicographically by edge ID tuple.
func sortRows(rows [][]hypergraph.EdgeID) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func ctxDone(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
